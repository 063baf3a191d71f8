"""Experiment harness: single-file analysis runs, replicated parameter
sweeps over the generative models, and figure-data emission.

Sweeps evaluate every (cell, replicate) pair independently; cells may run
in parallel workers, and the output ordering is canonical (cell values,
then replicate, ascending) no matter how the work was scheduled, so a
sweep spec always produces byte-identical CSV files. Replicate seeds are
derived as base_seed + replicate index.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import lrcstats
from .corpusio import read_token_file
from .genmodels import ModelParams, generate, run_metadata
from .seqcore import (
    DataError,
    TokenSequence,
    read_acf_csv,
    write_acf_csv,
    write_intervals_csv,
    write_rank_frequency_csv,
    write_token_file,
    write_type_token_csv,
)

FIGURE_IDS = ("rankfreq", "typetoken", "acf", "sweep_map")

SWEEP_MODELS = ("simon", "pitman_yor", "conjunct")


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one sweep: a list of alpha values for the
    constant-innovation model, or the cross product of a_values and
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
        for field in ("alpha_values", "a_values", "b_values"):
            object.__setattr__(self, field, tuple(getattr(self, field)))
        if self.model not in SWEEP_MODELS:
            raise DataError(f"unknown sweep model '{self.model}'")
        if self.replicates < 1:
            raise DataError("replicates must be >= 1")
        if self.length < 1:
            raise DataError("length must be >= 1")
        if self.model == "simon":
            if not self.alpha_values or self.a_values or self.b_values:
                raise DataError("simon sweeps take alpha_values only")
        else:
            if not self.a_values or not self.b_values or self.alpha_values:
                raise DataError(f"{self.model} sweeps take a_values and b_values")

    def cells(self) -> list[tuple[float, ...]]:
        if self.model == "simon":
            return [(alpha,) for alpha in sorted(self.alpha_values)]
        return [(a, b) for a in sorted(self.a_values) for b in sorted(self.b_values)]

    def to_dict(self) -> dict:
        d: dict = {
            "model": self.model,
            "replicates": self.replicates,
            "length": self.length,
            "base_seed": self.base_seed,
            "n": self.n,
        }
        if self.model == "simon":
            d["alpha_values"] = list(self.alpha_values)
        else:
            d["a_values"] = list(self.a_values)
            d["b_values"] = list(self.b_values)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        known = {
            "model",
            "replicates",
            "length",
            "base_seed",
            "n",
            "alpha_values",
            "a_values",
            "b_values",
        }
        unknown = set(d) - known
        if unknown:
            raise DataError(f"unknown sweep spec fields: {sorted(unknown)}")
        for key in ("model", "replicates", "length", "base_seed"):
            if key not in d:
                raise DataError(f"sweep spec missing '{key}'")
        return cls(
            model=str(d["model"]),
            replicates=int(d["replicates"]),
            length=int(d["length"]),
            base_seed=int(d["base_seed"]),
            n=int(d.get("n", lrcstats.DEFAULT_RARITY)),
            alpha_values=tuple(float(x) for x in d.get("alpha_values", ())),
            a_values=tuple(float(x) for x in d.get("a_values", ())),
            b_values=tuple(float(x) for x in d.get("b_values", ())),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepSpec":
        try:
            d = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
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


def _run_cell_job(args: tuple) -> SweepRecord:
    model, cell, replicate, length, base_seed, n = args
    seed = base_seed + replicate
    if model == "simon":
        params = ModelParams(model=model, length=length, seed=seed, alpha=cell[0])
    else:
        params = ModelParams(model=model, length=length, seed=seed, a=cell[0], b=cell[1])
    try:
        seq = generate(params)
        report = lrcstats.analyze(seq, n=n)
    except DataError as exc:
        return SweepRecord(cell=cell, replicate=replicate, seed=seed, error=str(exc))
    return SweepRecord(
        cell=cell,
        replicate=replicate,
        seed=seed,
        gamma=report.gamma,
        gamma_fit_error=report.gamma_fit_error,
        heaps_zeta=report.heaps_exponent,
        lrc_verdict=report.lrc_verdict,
        acf_points=len(report.acf) if report.acf is not None else None,
        error=None,
    )


def _aggregate(cell: tuple[float, ...], records: list[SweepRecord]) -> CellAggregate:
    gammas = [r.gamma for r in records if r.gamma is not None]
    errors = [
        (r.gamma_fit_error, r.acf_points)
        for r in records
        if r.gamma_fit_error is not None and r.acf_points
    ]
    mean_gamma = float(np.mean(gammas)) if gammas else None
    sd_gamma = float(np.sqrt(np.mean((np.array(gammas) - mean_gamma) ** 2))) if gammas else None
    lrc_fraction = sum(1 for r in records if r.lrc_verdict) / len(records)
    mean_fit_error = float(np.mean([e for e, _ in errors])) if errors else None
    pooled = None
    if errors:
        # Per-run error is sqrt(SSE)/n, so SSE = (error * n)**2; pooling
        # applies the same definition to the union of all fitted points.
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
    """Evaluate every grid cell `replicates` times. Results are merged and
    ordered canonically regardless of the execution order."""
    jobs = [
        (spec.model, cell, rep, spec.length, spec.base_seed, spec.n)
        for cell in spec.cells()
        for rep in range(spec.replicates)
    ]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_cell_job, jobs))
    else:
        records = [_run_cell_job(job) for job in jobs]
    records.sort(key=lambda r: (r.cell, r.replicate))
    by_cell: dict[tuple[float, ...], list[SweepRecord]] = {}
    for rec in records:
        by_cell.setdefault(rec.cell, []).append(rec)
    aggregates = [_aggregate(cell, recs) for cell, recs in sorted(by_cell.items())]
    return SweepResult(spec=spec, records=tuple(records), aggregates=tuple(aggregates))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cell_columns(model: str) -> list[str]:
    return ["alpha"] if model == "simon" else ["a", "b"]


def write_sweep_result(result: SweepResult, out_dir: str | Path) -> dict[str, Path]:
    """Write records.csv, aggregates.csv and a sweep.json manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cell_cols = _cell_columns(result.spec.model)

    records_path = out / "records.csv"
    header = cell_cols + [
        "replicate",
        "seed",
        "gamma",
        "gamma_fit_error",
        "heaps_zeta",
        "lrc_verdict",
        "acf_points",
        "error",
    ]
    with open(records_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in result.records:
            row = [_fmt(v) for v in r.cell]
            row += [
                _fmt(r.replicate),
                _fmt(r.seed),
                _fmt(r.gamma),
                _fmt(r.gamma_fit_error),
                _fmt(r.heaps_zeta),
                _fmt(r.lrc_verdict),
                _fmt(r.acf_points),
                '"{}"'.format(r.error.replace('"', '""')) if r.error else "",
            ]
            fh.write(",".join(row) + "\n")

    aggregates_path = out / "aggregates.csv"
    header = cell_cols + [
        "replicates",
        "mean_gamma",
        "sd_gamma",
        "lrc_fraction",
        "mean_fit_error",
        "pooled_fit_error",
    ]
    with open(aggregates_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for agg in result.aggregates:
            row = [_fmt(v) for v in agg.cell]
            row += [
                _fmt(agg.replicates),
                _fmt(agg.mean_gamma),
                _fmt(agg.sd_gamma),
                _fmt(agg.lrc_fraction),
                _fmt(agg.mean_fit_error),
                _fmt(agg.pooled_fit_error),
            ]
            fh.write(",".join(row) + "\n")

    manifest_path = out / "sweep.json"
    manifest = {
        "spec": result.spec.to_dict(),
        "records": "records.csv",
        "aggregates": "aggregates.csv",
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return {"records": records_path, "aggregates": aggregates_path, "manifest": manifest_path}


def resolve_rare_ids(seq: TokenSequence, rare_words: Iterable[str]) -> set[int]:
    """Map surface forms to ids for a forced rare set."""
    if seq.symbols is None:
        raise DataError("sequence has no symbol table")
    index = {s: i for i, s in enumerate(seq.symbols)}
    ids = set()
    for word in rare_words:
        key = word.lower()
        if key not in index:
            raise DataError(f"rare word '{word}' does not occur")
        ids.add(index[key])
    return ids


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


def write_analysis(report: lrcstats.AnalysisReport, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    files["report"] = report_path
    write_rank_frequency_csv(report.rank, out / "rankfreq.csv")
    files["rankfreq"] = out / "rankfreq.csv"
    write_type_token_csv(report.typetoken, out / "typetoken.csv")
    files["typetoken"] = out / "typetoken.csv"
    if report.intervals is not None:
        write_intervals_csv(report.intervals, out / "intervals.csv")
        files["intervals"] = out / "intervals.csv"
    if report.acf is not None:
        write_acf_csv(report.acf, out / "acf.csv")
        files["acf"] = out / "acf.csv"
    return files


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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"figure": figure_id, "files": []}

    if figure_id == "sweep_map":
        import csv  # only this figure reads CSV; keeps it off the CLI's import path

        agg_path = src / "aggregates.csv"
        with open(agg_path, encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if not rows:
            raise DataError(f"empty CSV {agg_path}")
        header = rows.pop(0)
        cell_cols = [c for c in header if c in ("alpha", "a", "b")]
        idx = {c: header.index(c) for c in cell_cols}
        frac_idx = header.index("lrc_fraction")
        out_path = out / "sweep_map.csv"
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(cell_cols + ["lrc_fraction"]) + "\n")
            for row in rows:
                fh.write(",".join([row[idx[c]] for c in cell_cols] + [row[frac_idx]]) + "\n")
        if len(cell_cols) == 2:
            entry = {"file": "sweep_map.csv", "x": cell_cols[0], "y": cell_cols[1], "value": "lrc_fraction"}
        else:
            entry = {"file": "sweep_map.csv", "x": cell_cols[0], "y": "lrc_fraction"}
        manifest["files"].append(entry)
    else:
        name = {"rankfreq": "rankfreq.csv", "typetoken": "typetoken.csv", "acf": "acf.csv"}[figure_id]
        axes = {"rankfreq": ("rank", "freq"), "typetoken": ("m", "v"), "acf": ("s", "c")}[figure_id]
        src_path = src / name
        if not src_path.exists():
            raise DataError(f"{src_path} not found (run an analysis first)")
        out_path = out / name
        out_path.write_text(src_path.read_text(encoding="utf-8"), encoding="utf-8")
        manifest["files"].append({"file": name, "x": axes[0], "y": axes[1]})
        if figure_id == "acf":
            report = json.loads((src / "report.json").read_text(encoding="utf-8"))
            curve = read_acf_csv(src_path, source_length=int(report["m_n"]))
            fit = lrcstats.fit_power_law(curve.points, decay=True)
            manifest["fit"] = {"exponent": fit.exponent, "amplitude": fit.amplitude}

    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest


def generate_to_file(params: ModelParams, out_path: str | Path) -> dict:
    """Generate a sequence, write the token file and its metadata JSON
    (out_path + '.meta.json'), and return the metadata."""
    seq = generate(params)
    write_token_file(seq, out_path)
    meta = run_metadata(params, seq)
    Path(str(out_path) + ".meta.json").write_text(
        json.dumps(meta, indent=2) + "\n", encoding="utf-8"
    )
    return meta
