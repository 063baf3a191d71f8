"""Span tracing from outside the program.

`instrument` replaces public functions of `lrclab` with timing wrappers at
the place where their caller looks them up (for example
`lrclab.cli.parse_chat_file`, or `lrclab.harness.generate` for the sweep
jobs). Nothing in `src/` changes. It is called in a freshly forked pass
process, so the wrappers die with that process, and the sweep's pool
workers, forked from it, inherit them.

A span holds its name, start, end, parent span, operation id and a few
counts. Spans stay in memory; a pool worker appends its spans to a spool
file at the end of each job, because its results travel back to the
parent only as `SweepRecord` objects. `layer_metrics` turns the spans of
one traced pass into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

MODELS = ("simon", "conjunct", "pitman_yor", "bigram", "shuffle")
LAYERS = ("genmodels", "lrcstats", "corpusio", "seqcore", "harness", "cli")
CLI_COMMANDS = ("chat-extract", "analyze", "shuffle", "generate", "figure")
CURVE_CSV_FUNCTIONS = (
    "write_rank_frequency_csv",
    "write_type_token_csv",
    "write_intervals_csv",
    "write_acf_csv",
    "read_acf_csv",
)


@dataclass
class Span:
    pid: int
    sid: int
    parent: tuple[int, int] | None
    name: str
    op: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[int, int]:
        return (self.pid, self.sid)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one pass process and its forked workers.

    Span times come from `time.perf_counter`, which on Linux reads the
    system-wide monotonic clock, so spans from different processes share
    one time axis."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = spool_dir
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.next_sid = 0

    def _check_fork(self) -> None:
        # A forked worker inherits the open stack (its parent chain) but
        # not the parent's finished spans.
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []

    def start(self, name: str, op: str | None = None) -> Span:
        self._check_fork()
        parent = self.stack[-1] if self.stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(
            pid=self.pid,
            sid=self.next_sid,
            parent=parent.key if parent is not None else None,
            name=name,
            op=op,
            start=time.perf_counter(),
        )
        self.next_sid += 1
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self.stack.pop()
        assert popped is span, "spans must nest"
        self.spans.append(span)

    def spool(self) -> None:
        """Append this worker's finished spans to its spool file."""
        if self.pid == self.root_pid or not self.spans:
            return
        path = self.spool_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """Spans of this process plus everything the workers spooled."""
        out = list(self.spans)
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                d = json.loads(line)
                d["parent"] = tuple(d["parent"]) if d["parent"] is not None else None
                out.append(Span(**d))
        return out


def _patch(tracer: Tracer, module, attr: str, name, after=None) -> None:
    """Replace module.attr with a wrapper that records one span per call.
    `name` is a string or a function of the call arguments; `after` maps
    (result, args) to counts stored on the span, taken after the span ends."""
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name if isinstance(name, str) else name(*args, **kwargs)
        span = tracer.start(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            span.attrs.update(after(result, *args, **kwargs))
        return result

    setattr(module, attr, wrapper)


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _seq_counts(seq, *_args, **_kwargs) -> dict:
    return {"elements": int(seq.m), "types": int(seq.tokens.max()) + 1}


def _report_counts(report, seq, n=16, rare=None) -> dict:
    counts = {"tokens": int(seq.m)}
    if report.intervals is not None:
        counts["intervals"] = report.intervals.m_n
        if rare is None:
            counts["rare_occurrences"] = report.intervals.m_n + 1
            counts["rare_target"] = seq.m // n
    if report.acf is not None:
        counts["acf_points"] = len(report.acf)
    return counts


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer where their callers look
    them up. Call once, in the process that will run the traced pass."""
    import lrclab.cli as cli
    import lrclab.corpusio as corpusio
    import lrclab.harness as harness
    import lrclab.lrcstats as lrcstats

    # genmodels: the sweep jobs reach generate() through harness, the CLI
    # reaches the corpus resamplers through its own imports.
    _patch(tracer, harness, "generate", lambda params: f"genmodels.{params.model}", _seq_counts)
    _patch(tracer, cli, "generate_bigram", "genmodels.bigram", _seq_counts)
    _patch(tracer, cli, "shuffle", "genmodels.shuffle", _seq_counts)

    # lrcstats: analyze() is looked up on the module by harness and the
    # stages by analyze() itself; the three fit entry points share a name
    # so that nested fits count once.
    _patch(tracer, lrcstats, "analyze", "lrcstats.analyze", _report_counts)
    for stage in ("select_rare_set", "extract_intervals", "acf_curve", "rank_frequency", "type_token_curve"):
        _patch(tracer, lrcstats, stage, f"lrcstats.{stage}")
    for fit in ("fit_power_law", "fit_zipf", "fit_heaps"):
        _patch(tracer, lrcstats, fit, "lrcstats.fit")

    # corpusio and seqcore, as the CLI and harness import them.
    _patch(tracer, cli, "parse_chat_file", "corpusio.parse_chat_file",
           lambda doc, path: {"bytes_read": _size(path)})
    _patch(tracer, cli, "extract_speaker_with_stats", "corpusio.extract_speaker",
           lambda res, *a, **k: {"tokens_read": res[0].m, "dropped_codes": res[1]})
    for module in (cli, harness):
        _patch(tracer, module, "read_token_file", "corpusio.read_token_file",
               lambda seq, path: {"bytes_read": _size(path), "tokens_read": seq.m})
        _patch(tracer, module, "write_token_file", "seqcore.write_token_file",
               lambda res, seq, path: {"bytes_written": _size(path)})
    _patch(tracer, corpusio, "sequence_from_surface", "seqcore.sequence_from_surface")
    for fn in CURVE_CSV_FUNCTIONS:
        after = None
        if fn.startswith("write"):
            after = lambda res, curve, path: {"bytes_written": _size(path)}  # noqa: E731
        _patch(tracer, harness, fn, "seqcore.curve_csv", after)

    # harness: the benchmark and the CLI call these on the module. The
    # job function is looked up on the module when run_sweep maps it over
    # the pool, and pickled by that name for the workers.
    for fn in ("run_sweep", "write_sweep_result", "run_analysis", "write_analysis", "emit_figure_data"):
        _patch(tracer, harness, fn, f"harness.{fn}")
    job = harness._run_cell_job

    @functools.wraps(job)
    def run_job(args):
        model, cell, replicate = args[0], args[1], args[2]
        span = tracer.start("harness.job", f"{model}:{','.join(map(repr, cell))}:{replicate}")
        record = None
        try:
            record = job(args)
            return record
        finally:
            tracer.end(span)
            span.attrs["job_errors"] = int(record is None or record.error is not None)
            tracer.spool()

    harness._run_cell_job = run_job


# ---------------------------------------------------------------------------
# Metrics from spans.
# ---------------------------------------------------------------------------

METRIC_UNITS: dict[str, str] = {}
for _m in MODELS:
    METRIC_UNITS[f"genmodels.{_m}.busy_s"] = "s"
    METRIC_UNITS[f"genmodels.{_m}.ns_per_element"] = "ns"
METRIC_UNITS.update({
    "genmodels.elements": "count",
    "genmodels.types": "count",
    "lrcstats.analyze.busy_s": "s",
    "lrcstats.analyze.self_s": "s",
    "lrcstats.select_rare_set.busy_s": "s",
    "lrcstats.extract_intervals.busy_s": "s",
    "lrcstats.acf_curve.busy_s": "s",
    "lrcstats.rank_frequency.busy_s": "s",
    "lrcstats.type_token_curve.busy_s": "s",
    "lrcstats.fit.busy_s": "s",
    "lrcstats.analyze.calls": "count",
    "lrcstats.tokens": "count",
    "lrcstats.intervals": "count",
    "lrcstats.acf_points": "count",
    "lrcstats.rare_coverage": "ratio",
    "corpusio.parse_chat_file.busy_s": "s",
    "corpusio.parse_chat_file.mb_per_s": "MB/s",
    "corpusio.extract_speaker.busy_s": "s",
    "corpusio.read_token_file.busy_s": "s",
    "corpusio.read_token_file.mb_per_s": "MB/s",
    "corpusio.bytes_read": "bytes",
    "corpusio.tokens_read": "count",
    "corpusio.dropped_codes": "count",
    "seqcore.sequence_from_surface.busy_s": "s",
    "seqcore.write_token_file.busy_s": "s",
    "seqcore.write_token_file.mb_per_s": "MB/s",
    "seqcore.curve_csv.busy_s": "s",
    "seqcore.bytes_written": "bytes",
    "harness.run_sweep.busy_s": "s",
    "harness.jobs": "count",
    "harness.job_errors": "count",
    "harness.job.busy_s": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.pool_overhead_s": "s",
    "harness.write_sweep_result.busy_s": "s",
    "harness.run_analysis.busy_s": "s",
    "harness.write_analysis.busy_s": "s",
    "harness.emit_figure_data.busy_s": "s",
})
for _c in CLI_COMMANDS:
    METRIC_UNITS[f"cli.{_c}.busy_s"] = "s"
METRIC_UNITS["cli.self_s"] = "s"
for _layer in LAYERS:
    if _layer != "cli":
        METRIC_UNITS[f"{_layer}.self_s"] = "s"
METRIC_UNITS.update({
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace_overhead_s": "s",
    "failed_ops_ratio": "ratio",
})


def _busy(spans: list[Span], by_key: dict, name: str) -> float:
    """Summed duration of the outermost spans called `name`: a span inside
    another span of the same name is already counted by it."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        parent = by_key.get(s.parent)
        nested = False
        while parent is not None:
            if parent.name == name:
                nested = True
                break
            parent = by_key.get(parent.parent)
        if not nested:
            total += s.duration
    return total


def _self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Span duration minus the time covered by its children in the same
    process (one thread per process, so children never overlap)."""
    self_time = {s.key: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent[0] == s.pid and s.parent in self_time:
            self_time[s.parent] -= s.duration
    return self_time


def _attr_sum(spans: list[Span], name_prefix: str, attr: str) -> float:
    return float(sum(s.attrs.get(attr, 0) for s in spans if s.name.startswith(name_prefix)))


def layer_metrics(spans: list[Span], wall_s: float, main_pid: int, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose main process is main_pid
    and whose wall-clock time was wall_s."""
    by_key = {s.key: s for s in spans}
    busy = {name: _busy(spans, by_key, name) for name in {s.name for s in spans}}
    self_time = _self_times(spans)
    out: dict[str, float] = {}

    elements = types = 0
    for model in MODELS:
        name = f"genmodels.{model}"
        model_elements = _attr_sum(spans, name, "elements")
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
        out[f"{name}.ns_per_element"] = busy.get(name, 0.0) * 1e9 / model_elements if model_elements else 0.0
        elements += model_elements
        types += _attr_sum(spans, name, "types")
    out["genmodels.elements"] = elements
    out["genmodels.types"] = types

    for stage in ("analyze", "select_rare_set", "extract_intervals", "acf_curve", "rank_frequency", "type_token_curve", "fit"):
        out[f"lrcstats.{stage}.busy_s"] = busy.get(f"lrcstats.{stage}", 0.0)
    out["lrcstats.analyze.self_s"] = sum(self_time[s.key] for s in spans if s.name == "lrcstats.analyze")
    out["lrcstats.analyze.calls"] = sum(1 for s in spans if s.name == "lrcstats.analyze")
    for count in ("tokens", "intervals", "acf_points"):
        out[f"lrcstats.{count}"] = _attr_sum(spans, "lrcstats.analyze", count)
    target = _attr_sum(spans, "lrcstats.analyze", "rare_target")
    out["lrcstats.rare_coverage"] = _attr_sum(spans, "lrcstats.analyze", "rare_occurrences") / target if target else 0.0

    chat_bytes = _attr_sum(spans, "corpusio.parse_chat_file", "bytes_read")
    file_bytes = _attr_sum(spans, "corpusio.read_token_file", "bytes_read")
    for name, nbytes in (("corpusio.parse_chat_file", chat_bytes), ("corpusio.read_token_file", file_bytes)):
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
        out[f"{name}.mb_per_s"] = nbytes / 1e6 / busy[name] if busy.get(name) else 0.0
    out["corpusio.extract_speaker.busy_s"] = busy.get("corpusio.extract_speaker", 0.0)
    out["corpusio.bytes_read"] = chat_bytes + file_bytes
    out["corpusio.tokens_read"] = _attr_sum(spans, "corpusio.", "tokens_read")
    out["corpusio.dropped_codes"] = _attr_sum(spans, "corpusio.extract_speaker", "dropped_codes")

    token_bytes = _attr_sum(spans, "seqcore.write_token_file", "bytes_written")
    out["seqcore.sequence_from_surface.busy_s"] = busy.get("seqcore.sequence_from_surface", 0.0)
    out["seqcore.write_token_file.busy_s"] = busy.get("seqcore.write_token_file", 0.0)
    out["seqcore.write_token_file.mb_per_s"] = (
        token_bytes / 1e6 / busy["seqcore.write_token_file"] if busy.get("seqcore.write_token_file") else 0.0
    )
    out["seqcore.curve_csv.busy_s"] = busy.get("seqcore.curve_csv", 0.0)
    out["seqcore.bytes_written"] = token_bytes + _attr_sum(spans, "seqcore.curve_csv", "bytes_written")

    jobs = [s for s in spans if s.name == "harness.job"]
    sweeps = [s for s in spans if s.name == "harness.run_sweep"]
    out["harness.run_sweep.busy_s"] = busy.get("harness.run_sweep", 0.0)
    out["harness.jobs"] = len(jobs)
    out["harness.job_errors"] = _attr_sum(jobs, "harness.job", "job_errors")
    out["harness.job.busy_s"] = sum(s.duration for s in jobs)
    sweep_s = out["harness.run_sweep.busy_s"]
    out["harness.parallel_efficiency"] = out["harness.job.busy_s"] / (sweep_s * workers) if sweep_s else 0.0
    # Pool start-up, shutdown and merging: the part of each sweep outside
    # the stretch from its first job's start to its last job's end.
    overhead = 0.0
    for sweep in sweeps:
        own = [j for j in jobs if j.parent == sweep.key]
        if own:
            overhead += sweep.duration - (max(j.end for j in own) - min(j.start for j in own))
    out["harness.pool_overhead_s"] = overhead
    for fn in ("write_sweep_result", "run_analysis", "write_analysis", "emit_figure_data"):
        out[f"harness.{fn}.busy_s"] = busy.get(f"harness.{fn}", 0.0)

    for command in CLI_COMMANDS:
        out[f"cli.{command}.busy_s"] = busy.get(f"cli.{command}", 0.0)

    # Self times on the main process's timeline: with the unattributed
    # remainder they add up to the traced wall time. While a pool runs the
    # jobs, the main process waits inside run_sweep, so that wait is
    # harness self time; the workers' work shows in the busy times above.
    attributed = 0.0
    for layer in LAYERS:
        layer_self = sum(
            self_time[s.key] for s in spans if s.pid == main_pid and s.name.split(".")[0] == layer
        )
        out[f"{layer}.self_s"] = layer_self
        attributed += layer_self
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - attributed
    return out
