"""Experiment harness: single-file analysis runs, replicated parameter
sweeps over the generative models, and figure-data emission.

Sweeps evaluate every (cell, replicate) pair independently; on w workers
the calling process runs every w-th job and a forked pool of w - 1
processes runs the rest, and the output ordering is canonical (cell values,
then replicate, ascending) no matter how the work was scheduled, so a
sweep spec always produces byte-identical CSV files. Replicate seeds are
derived as base_seed + replicate index.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from . import lrcstats
from .corpusio import read_token_file
from .genmodels import MODEL_PARAMS, ModelParams, generate
from .seqcore import (
    DataError,
    TokenSequence,
    _read_csv,
    _write_csv,
    moments,
    open_output,
    read_acf_csv,
    read_text,
    write_acf_csv,
    write_intervals_csv,
    write_json,
    write_rank_frequency_csv,
    write_token_file,
    write_type_token_csv,
)

FIGURE_IDS = ("rankfreq", "typetoken", "acf", "sweep_map")

GRID_AXES = ("alpha_values", "a_values", "b_values")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> int:
    """An integral number; a bool, a fraction or a string is an error."""
    if not _is_number(value) or not float(value).is_integer():
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _floats(values) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or not all(map(_is_number, values)):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    return tuple(float(x) for x in values)


# How from_dict converts each JSON value, by field annotation.
_SPEC_CONVERTERS = {"str": str, "int": _integer, "tuple[float, ...]": _floats}


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one sweep: the cross product of the
    `<name>_values` axes of the model's parameters (`MODEL_PARAMS`), that
    is, alpha_values for the constant-innovation model, or a_values times
    b_values for the (a, b) models."""

    model: str
    replicates: int
    length: int
    base_seed: int
    n: int = lrcstats.DEFAULT_RARITY
    alpha_values: tuple[float, ...] = ()
    a_values: tuple[float, ...] = ()
    b_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for axis in GRID_AXES:
            values = tuple(getattr(self, axis))
            if len(set(values)) != len(values):
                raise DataError(f"{axis} has repeated values")
            object.__setattr__(self, axis, values)
        if self.model not in MODEL_PARAMS:
            raise DataError(f"unknown sweep model '{self.model}'")
        if self.replicates < 1:
            raise DataError("replicates must be >= 1")
        if self.length < 1:
            raise DataError("length must be >= 1")
        if self.n < 2:
            raise DataError("rarity divisor must be at least 2")
        axes = [f"{name}_values" for name in MODEL_PARAMS[self.model]]
        if any(bool(getattr(self, axis)) != (axis in axes) for axis in GRID_AXES):
            raise DataError(f"{self.model} sweeps take {' and '.join(axes)} only")
        # Every cell is checked at the first and last replicate seed before any run.
        for cell in self.cells():
            for seed in (self.base_seed, self.base_seed + self.replicates - 1):
                _cell_params(self.model, cell, self.length, seed)

    def cells(self) -> list[tuple[float, ...]]:
        axes = (sorted(getattr(self, f"{name}_values")) for name in MODEL_PARAMS[self.model])
        return list(itertools.product(*axes))

    def to_dict(self) -> dict:
        """The spec's fields, without the grid axes this model does not use."""
        return {k: v for k, v in asdict(self).items() if k not in GRID_AXES or v}

    @classmethod
    def from_dict(cls, d: object) -> "SweepSpec":
        if not isinstance(d, dict):
            raise DataError("sweep spec must be a JSON object")
        known = {f.name: f for f in fields(cls)}
        unknown = set(d) - set(known)
        if unknown:
            raise DataError(f"unknown sweep spec fields: {sorted(unknown)}")
        kwargs = {}
        for name, f in known.items():
            if name not in d:
                if f.default is MISSING:
                    raise DataError(f"sweep spec missing '{name}'")
                continue
            try:
                kwargs[name] = _SPEC_CONVERTERS[f.type](d[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"sweep spec field '{name}': {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepSpec":
        try:  # a failed read passes its own DataError through
            d = json.loads(read_text(path, "sweep spec"))
        except json.JSONDecodeError as exc:
            raise DataError(f"cannot read sweep spec {path}: {exc}") from exc
        return cls.from_dict(d)


@dataclass(frozen=True)
class SweepRecord:
    """Outcome of one (cell, replicate) run. Failed cells carry the error
    message instead of aborting the sweep."""

    cell: tuple[float, ...]
    replicate: int
    seed: int
    gamma: float | None = None
    gamma_fit_error: float | None = None
    gamma_fit_points: int | None = None
    heaps_zeta: float | None = None
    lrc_verdict: bool | None = None
    acf_points: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class CellAggregate:
    cell: tuple[float, ...]
    replicates: int
    mean_gamma: float | None
    sd_gamma: float | None
    lrc_fraction: float
    mean_fit_error: float | None
    pooled_fit_error: float | None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    records: tuple[SweepRecord, ...]
    aggregates: tuple[CellAggregate, ...]


def _cell_params(model: str, cell: tuple[float, ...], length: int, seed: int) -> ModelParams:
    return ModelParams(model=model, length=length, seed=seed, **dict(zip(MODEL_PARAMS[model], cell)))


def _run_cell_job(args: tuple) -> SweepRecord:
    model, cell, replicate, length, base_seed, n = args
    seed = base_seed + replicate
    params = _cell_params(model, cell, length, seed)
    try:
        seq = generate(params)
        report = lrcstats.analyze(seq, n=n)
    except DataError as exc:
        return SweepRecord(cell=cell, replicate=replicate, seed=seed, error=str(exc))
    fit = report.gamma_fit
    return SweepRecord(
        cell=cell,
        replicate=replicate,
        seed=seed,
        gamma=report.gamma,
        gamma_fit_error=report.gamma_fit_error,
        gamma_fit_points=fit.n_points_used if fit is not None else None,
        heaps_zeta=report.heaps_exponent,
        lrc_verdict=report.lrc_verdict,
        acf_points=len(report.acf) if report.acf is not None else None,
        error=None,
    )


def _aggregate(cell: tuple[float, ...], records: list[SweepRecord]) -> CellAggregate:
    gammas = [r.gamma for r in records if r.gamma is not None]
    errors = [
        (r.gamma_fit_error, r.gamma_fit_points)
        for r in records
        if r.gamma_fit_error is not None and r.gamma_fit_points
    ]
    mean_gamma, sd_gamma = moments(gammas) if gammas else (None, None)
    lrc_fraction = sum(1 for r in records if r.lrc_verdict) / len(records)
    mean_fit_error = float(np.mean([e for e, _ in errors])) if errors else None
    pooled = None
    if errors:
        # Per-run error is sqrt(SSE)/n over its n fitted points, so SSE =
        # (error * n)**2; pooling applies that to the union of fitted points.
        total_sse = sum((e * k) ** 2 for e, k in errors)
        total_points = sum(k for _, k in errors)
        pooled = float(np.sqrt(total_sse) / total_points)
    return CellAggregate(
        cell=cell,
        replicates=len(records),
        mean_gamma=mean_gamma,
        sd_gamma=sd_gamma,
        lrc_fraction=lrc_fraction,
        mean_fit_error=mean_fit_error,
        pooled_fit_error=pooled,
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate every grid cell `replicates` times. The jobs are listed in
    canonical order, and records keep it whatever order the jobs ran in.

    Up to `workers` jobs run at a time, in as many processes, the calling
    one included: with w = min(workers, jobs) > 1, the caller runs every
    w-th job, starting at the first, and a pool of w - 1 forked processes
    runs the rest. A job that raises cancels the pool's jobs that have not
    started, and the exception propagates."""
    jobs = [
        (spec.model, cell, rep, spec.length, spec.base_seed, spec.n)
        for cell in spec.cells()
        for rep in range(spec.replicates)
    ]
    w = min(workers, len(jobs))
    if w > 1:
        records = [None] * len(jobs)
        # A forked pool starts all its workers at the first submit.
        with ProcessPoolExecutor(max_workers=w - 1) as pool:
            try:
                pooled = [(i, pool.submit(_run_cell_job, jobs[i])) for i in range(len(jobs)) if i % w]
                for i in range(0, len(jobs), w):
                    records[i] = _run_cell_job(jobs[i])
                for i, future in pooled:
                    records[i] = future.result()
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    else:
        records = [_run_cell_job(job) for job in jobs]
    groups = itertools.groupby(records, key=lambda r: r.cell)
    aggregates = [_aggregate(cell, list(recs)) for cell, recs in groups]
    return SweepResult(spec=spec, records=tuple(records), aggregates=tuple(aggregates))


def _fmt(value) -> str:
    """One CSV field. Strings are quoted per RFC 4180 (an embedded '"' is
    doubled); None and the empty string give an empty field."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return '"{}"'.format(value.replace('"', '""')) if value else ""
    return str(value)


def _write_table(path: Path, cell_cols: list[str], kind: type, rows: Iterable) -> None:
    """One row per record: the cell values, then every field of `kind`
    after `cell`, in declaration order."""
    names = [f.name for f in fields(kind)][1:]

    def line(row) -> str:
        values = [*row.cell, *(getattr(row, n) for n in names)]
        return ",".join(_fmt(v) for v in values)

    _write_csv(path, ",".join(cell_cols + names), map(line, rows))


def write_sweep_result(result: SweepResult, out_dir: str | Path) -> None:
    """Write records.csv, aggregates.csv and a sweep.json manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cell_cols = list(MODEL_PARAMS[result.spec.model])
    _write_table(out / "records.csv", cell_cols, SweepRecord, result.records)
    _write_table(out / "aggregates.csv", cell_cols, CellAggregate, result.aggregates)
    manifest = {"spec": result.spec.to_dict(), "records": "records.csv", "aggregates": "aggregates.csv"}
    write_json(out / "sweep.json", manifest)


def resolve_rare_ids(seq: TokenSequence, rare_words: Iterable[str]) -> np.ndarray:
    """Map surface forms to the ascending int64 ids of a forced rare set."""
    if seq.symbols is None:
        raise DataError("sequence has no symbol table")
    index = {s: i for i, s in enumerate(seq.symbols)}
    ids = []
    for word in rare_words:
        key = word.lower()
        if key not in index:
            raise DataError(f"rare word '{word}' does not occur")
        ids.append(index[key])
    return np.unique(np.array(ids, dtype=np.int64))


def run_analysis(
    input_path: str | Path,
    n: int = lrcstats.DEFAULT_RARITY,
    out_dir: str | Path | None = None,
    rare_words: Iterable[str] | None = None,
) -> lrcstats.AnalysisReport:
    """Analyze one token file and (optionally) write the report JSON plus
    the curve CSVs into out_dir."""
    seq = read_token_file(input_path)
    rare_ids = resolve_rare_ids(seq, rare_words) if rare_words is not None else None
    try:
        report = lrcstats.analyze(seq, n=n, rare=rare_ids)
    except DataError as exc:
        raise DataError(f"{input_path}: {exc}") from exc
    if out_dir is not None:
        write_analysis(report, out_dir)
    return report


def write_analysis(report: lrcstats.AnalysisReport, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report.to_dict())
    # The writers are looked up at call time, so wrappers set on the module
    # apply. A curve the report lacks is deleted, so no stale curve remains.
    for key, curve, writer in (
        ("rankfreq", report.rank, write_rank_frequency_csv),
        ("typetoken", report.typetoken, write_type_token_csv),
        ("intervals", report.intervals, write_intervals_csv),
        ("acf", report.acf, write_acf_csv),
    ):
        path = out / f"{key}.csv"
        if curve is None:
            path.unlink(missing_ok=True)
        else:
            writer(curve, path)


def _sweep_model(path: Path) -> str:
    """The model named in a sweep's sweep.json manifest, validated as a spec."""
    text = read_text(path, "sweep manifest")  # before the try: ValueError would rewrap its DataError
    try:
        manifest = json.loads(text)
        return SweepSpec.from_dict(manifest["spec"]).model
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read sweep manifest {path}: {exc}") from exc


def _report_m_n(path: Path) -> int:
    """The M/N an analysis used, from its report.json."""
    try:  # a failed read passes its own DataError through
        m_n = json.loads(read_text(path, "analysis report"))["m_n"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read analysis report {path}: {exc}") from exc
    if type(m_n) is not int:
        raise DataError(f"{path}: m_n must be an integer, not {m_n!r}")
    return m_n


def emit_figure_data(
    input_dir: str | Path, figure_id: str, out_dir: str | Path
) -> dict:
    """Re-emit the data behind one figure panel as CSV plus a manifest that
    names each file and its axes. `input_dir` is an analysis output
    directory (rankfreq / typetoken / acf) or a sweep output directory
    (sweep_map)."""
    if figure_id not in FIGURE_IDS:
        raise DataError(f"unknown figure_id '{figure_id}'")
    src = Path(input_dir)
    manifest: dict = {"figure": figure_id, "files": []}

    # Every input is read before the output directory is made, so a failed
    # figure leaves nothing behind.
    if figure_id == "sweep_map":
        cell_cols = list(MODEL_PARAMS[_sweep_model(src / "sweep.json")])
        columns = cell_cols + [f.name for f in fields(CellAggregate)][1:]
        rows = _read_csv(src / "aggregates.csv", ",".join(columns))
        frac = columns.index("lrc_fraction")
        name = "sweep_map.csv"
        header = ",".join(cell_cols + ["lrc_fraction"])
        lines = (",".join(row[: len(cell_cols)] + [row[frac]]) for row in rows)
        roles = dict(zip(("x", "y", "value"), cell_cols + ["lrc_fraction"]))
        manifest["files"].append({"file": name, **roles})
    else:
        name = f"{figure_id}.csv"
        axes = {"rankfreq": ("rank", "freq"), "typetoken": ("m", "v"), "acf": ("s", "c")}[figure_id]
        src_path = src / name
        if not src_path.exists():
            raise DataError(f"{src_path} not found (run an analysis first)")
        if figure_id == "acf":
            curve = read_acf_csv(src_path, source_length=_report_m_n(src / "report.json"))
            fit = lrcstats.fit_power_law(curve.offsets, curve.values, decay=True)
            manifest["fit"] = {"exponent": fit.exponent, "amplitude": fit.amplitude}
        text = read_text(src_path)
        manifest["files"].append({"file": name, "x": axes[0], "y": axes[1]})

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if figure_id == "sweep_map":
        _write_csv(out / name, header, lines)
    else:
        with open_output(out / name) as fh:
            fh.write(text)
    write_json(out / "manifest.json", manifest)
    return manifest


def write_sequence(
    seq: TokenSequence, out_path: str | Path, model: str, params: dict, seed: int, degenerate: bool = False
) -> None:
    """Write a generated or shuffled sequence's token file and the metadata
    sidecar beside it: model, params, seed, length and final_vocab, the
    number of types `seq.k`, then `degenerate: true` for the a = b = 0
    models."""
    write_token_file(seq, out_path)
    meta = {"model": model, "params": params, "seed": seed, "length": seq.m, "final_vocab": seq.k}
    if degenerate:
        meta["degenerate"] = True
    write_json(f"{out_path}.meta.json", meta)
