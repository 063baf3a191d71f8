"""lrclab: generative symbol-sequence models and long-range correlation
analysis (rank-frequency, type-token growth, interval autocorrelation)."""

from .seqcore import (
    AcfCurve,
    CurveTooShortError,
    DataError,
    IntervalSequence,
    PowerLawFit,
    RankFrequency,
    TokenSequence,
    TypeTokenCurve,
    log_grid,
    moments,
    sequence_from_surface,
    write_token_file,
)
from .lrcstats import (
    AnalysisReport,
    LrcVerdict,
    acf_curve,
    analyze,
    autocorrelation,
    extract_intervals,
    fit_heaps,
    fit_power_law,
    fit_zipf,
    judge_lrc,
    rank_frequency,
    select_rare_set,
    type_token_curve,
)
from .genmodels import (
    GeneratorState,
    ModelParams,
    generate,
    generate_bigram,
    generate_conjunct,
    generate_pitman_yor,
    generate_simon,
    generate_zipf_iid,
    shuffle,
)
from .corpusio import (
    ChatDocument,
    ChatParseError,
    Utterance,
    extract_speaker_with_stats,
    parse_chat,
    read_token_file,
    read_tokens,
)
from .harness import (
    SweepRecord,
    SweepResult,
    SweepSpec,
    emit_figure_data,
    run_analysis,
    run_sweep,
    write_sweep_result,
)

__version__ = "0.1.0"
