"""The three workloads: inputs built from the seed, one timed pass, and the
output checks that any correct implementation must pass.

An operation is one sweep record or one CLI command. `run` performs the
operations of one pass and returns what they produced; `check` then
judges each operation, untimed. Every check holds for any correct
generator, not only for today's random streams.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lrclab.cli as cli
import lrclab.harness as harness
from lrclab.genmodels import ModelParams, generate

from chatgen import make_transcript

# The statistical windows below (ZETA_RANGE, SIMON_GAMMA_RANGE) were
# calibrated at this length; shorter self-test runs apply the exact checks
# only.
CALIBRATED_LENGTH = 10**6
DEGENERATE_ERROR = "degenerate series"


@dataclass
class Checked:
    """Outcome of one pass's output checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # Hashes that must be identical in every pass of a run, with the
    # number of operations that fail when one differs.
    identity: dict[str, tuple[str, int]] = field(default_factory=dict)
    # Hashes recorded for information only.
    info: dict[str, str] = field(default_factory=dict)

    def judge(self, label: str, problems: list[str], ops: int = 1) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.failures.extend(f"{label}: {p}" for p in problems)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _degenerate_expected(spec: harness.SweepSpec, rec) -> bool:
    """Whether `degenerate series` is the correct outcome of a record.

    The interval series is constant when one type holds more than
    M - floor(M / n) tokens: the rare-set rule then takes every type and
    every gap is 1. The (0, 0) cell of the (a, b) models never innovates,
    so its sequence is constant. Under b = 0 the first type's share is
    random (Beta(1 - a, a) for Pitman-Yor) and exceeds 15/16 for some
    seeds; such a record is confirmed by generating its sequence again."""
    if spec.model == "simon":
        return False
    if rec.cell == (0.0, 0.0):
        return True
    params = ModelParams(model=spec.model, length=spec.length, seed=rec.seed, a=rec.cell[0], b=rec.cell[1])
    tokens = generate(params).tokens
    return tokens.size - int(np.bincount(tokens).max()) < tokens.size // spec.n


def _record_problems(spec: harness.SweepSpec, rec, full_scale: bool) -> list[str]:
    """What is wrong with one sweep record."""
    if rec.cell == (0.0, 0.0) and rec.error != DEGENERATE_ERROR:
        return [f"expected '{DEGENERATE_ERROR}', got error={rec.error!r}"]
    if rec.error is not None:
        if rec.error == DEGENERATE_ERROR and _degenerate_expected(spec, rec):
            return []
        return [f"unexpected error {rec.error!r}"]
    # Any correct run yields a vocabulary-growth fit and an ACF curve at
    # these lengths; gamma may be missing where too few ACF points are
    # positive, which is the verdict's business, not an error.
    if rec.heaps_zeta is None or not rec.acf_points:
        return ["missing heaps zeta or ACF curve"]
    if not full_scale:
        return []
    problems = []
    low, high = ZETA_RANGE[(spec.model, rec.cell[0])]
    if not low <= rec.heaps_zeta <= high:
        problems.append(f"heaps zeta {rec.heaps_zeta:.4f} outside [{low}, {high}]")
    if spec.model == "simon":
        low, high = SIMON_GAMMA_RANGE[rec.cell[0]]
        if rec.gamma is None or not low <= rec.gamma <= high:
            problems.append(f"Simon gamma {rec.gamma} outside [{low}, {high}]")
    return problems


# Per-run windows at 10^6 elements, set from 16 seeds (0-11, 1000, 31337,
# 2**31 - 1, 123456789) per cell.
#
# Vocabulary growth (criteria 4, 5 and 8), with each side at least twice
# the widest deviation seen from the expected exponent: Simon grows
# linearly (zeta 0.93-1.09 seen); the (a, b) models grow as t**a for
# a = 0.68 (0.55-0.73 seen) and logarithmically for a = 0, which fits a
# small slope (0.05-0.18 seen).
ZETA_RANGE = {
    ("simon", 0.1): (0.8, 1.2),
    ("simon", 0.2): (0.8, 1.2),
    ("simon", 0.3): (0.8, 1.2),
    ("simon", 0.4): (0.8, 1.2),
    ("conjunct", 0.0): (0.0, 0.36),
    ("conjunct", 0.68): (0.41, 0.95),
    ("pitman_yor", 0.0): (0.0, 0.36),
    ("pitman_yor", 0.68): (0.41, 0.95),
}
# Simon's correlation exponent per alpha (criterion 3): the seeds' mean
# plus or minus three times the widest deviation seen, 4.9 to 6.5 standard
# deviations. The windows reject, for most seeds, a generator whose
# innovation rate is off by a factor of three. The verdicts of criteria 3,
# 5 and 6 are booleans with no margin to measure, and conjunct's gamma
# came within 0.03 of zero, so neither is checked per run.
SIMON_GAMMA_RANGE = {
    0.1: (0.078, 0.267),
    0.2: (0.052, 0.214),
    0.3: (0.053, 0.170),
    0.4: (0.022, 0.167),
}


@dataclass
class SweepWorkload:
    """Sweeps driven through `harness.run_sweep` and `write_sweep_result`."""

    name: str
    specs: tuple[harness.SweepSpec, ...]
    workers: int

    @property
    def ops(self) -> int:
        return sum(len(spec.cells()) * spec.replicates for spec in self.specs)

    def run(self, passdir: Path, tracer=None) -> list:
        outcomes = []
        for spec in self.specs:
            try:
                result = harness.run_sweep(spec, workers=self.workers)
                harness.write_sweep_result(result, passdir / spec.model)
                outcomes.append((spec, result, None))
            except Exception as exc:  # a failed sweep is counted; the pass goes on
                outcomes.append((spec, None, f"{type(exc).__name__}: {exc}"))
        return outcomes

    def check(self, passdir: Path, outcomes: list) -> Checked:
        checked = Checked()
        for spec, result, error in outcomes:
            expected = len(spec.cells()) * spec.replicates
            if error is not None:
                checked.judge(spec.model, [f"sweep raised {error}"], expected)
                continue
            records = result.records
            if len(records) != expected:
                checked.judge(spec.model, [f"{len(records)} records, expected {expected}"], expected)
                continue
            full_scale = spec.length == CALIBRATED_LENGTH
            for rec in records:
                checked.judge(f"{spec.model} cell {rec.cell}", _record_problems(spec, rec, full_scale))
            for name in ("records.csv", "aggregates.csv"):
                checked.identity[f"{spec.model}/{name}"] = (_sha(passdir / spec.model / name), expected)
        return checked


def sweep_copy(seed: int, length: int, workdir: Path) -> SweepWorkload:
    specs = (
        harness.SweepSpec(model="simon", replicates=1, length=length, base_seed=seed,
                          alpha_values=(0.1, 0.2, 0.3, 0.4)),
        harness.SweepSpec(model="conjunct", replicates=1, length=length, base_seed=seed,
                          a_values=(0.0, 0.68), b_values=(0.0, 0.8)),
    )
    return SweepWorkload("sweep_copy", specs, workers=2)


def sweep_py(seed: int, length: int, workdir: Path) -> SweepWorkload:
    specs = (
        harness.SweepSpec(model="pitman_yor", replicates=1, length=length, base_seed=seed,
                          a_values=(0.0, 0.68), b_values=(0.0, 0.8)),
    )
    return SweepWorkload("sweep_py", specs, workers=1)


# ---------------------------------------------------------------------------
# CHAT corpus study through the CLI
# ---------------------------------------------------------------------------

@dataclass
class CorpusWorkload:
    """A child-speech study run through `lrclab.cli.main`, in-process."""

    name: str
    transcript: Path
    seed: int
    chi_tokens: int
    chi_dropped: int
    workers: int = 1

    @property
    def ops(self) -> int:
        return len(self.argvs(self.transcript.parent))

    def argvs(self, d: Path) -> list[list[str]]:
        seed = str(self.seed)
        return [
            ["chat-extract", "--input", str(self.transcript), "--speakers", "CHI", "--out", str(d / "chi.txt")],
            ["analyze", "--input", str(d / "chi.txt"), "--out", str(d / "an_src")],
            ["shuffle", "--input", str(d / "chi.txt"), "--seed", seed, "--out", str(d / "shuf.txt")],
            ["analyze", "--input", str(d / "shuf.txt"), "--out", str(d / "an_shuf")],
            ["generate", "--model", "bigram", "--corpus", str(d / "chi.txt"), "--length",
             str(self.chi_tokens), "--seed", seed, "--out", str(d / "bigram.txt")],
            ["analyze", "--input", str(d / "bigram.txt"), "--out", str(d / "an_bigram")],
            ["figure", "--input", str(d / "an_src"), "--id", "acf", "--out", str(d / "fig_acf")],
        ]

    def run(self, passdir: Path, tracer=None) -> list:
        outcomes = []
        for i, argv in enumerate(self.argvs(passdir)):
            span = tracer.start(f"cli.{argv[0]}", op=str(i)) if tracer is not None else None
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    outcomes.append((argv[0], cli.main(argv), None))
            except SystemExit as exc:  # argparse reports usage errors by exiting
                outcomes.append((argv[0], exc.code, None))
            except Exception as exc:  # a failed command is counted; the pass goes on
                outcomes.append((argv[0], None, f"{type(exc).__name__}: {exc}"))
            finally:
                if span is not None:
                    tracer.end(span)
        return outcomes

    def check(self, passdir: Path, outcomes: list) -> Checked:
        checked = Checked()
        tests = (
            self._check_extract,
            lambda d: _report_problems(d / "an_src", self.chi_tokens),
            lambda d: _token_file_problems(d / "shuf.txt", self.chi_tokens),
            self._check_shuffled_analysis,
            lambda d: _token_file_problems(d / "bigram.txt", self.chi_tokens),
            lambda d: _report_problems(d / "an_bigram", self.chi_tokens),
            _figure_problems,
        )
        for i, ((command, code, error), test) in enumerate(zip(outcomes, tests)):
            if error is not None:
                problems = [f"raised {error}"]
            elif code != 0:
                problems = [f"exit code {code}"]
            else:
                try:
                    problems = test(passdir)
                except (OSError, ValueError, KeyError) as exc:
                    problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
            checked.judge(f"step {i + 1} {command}", problems)
        for path in sorted(passdir.rglob("*")):
            if path.is_file():
                checked.info[str(path.relative_to(passdir))] = _sha(path)
        return checked

    def _check_extract(self, d: Path) -> list[str]:
        problems = _token_file_problems(d / "chi.txt", self.chi_tokens)
        prov = json.loads((d / "chi.txt.provenance.json").read_text(encoding="utf-8"))
        if prov["dropped_token_count"] != self.chi_dropped:
            problems.append(f"{prov['dropped_token_count']} dropped codes, transcript holds {self.chi_dropped}")
        return problems

    def _check_shuffled_analysis(self, d: Path) -> list[str]:
        # Criterion 7: shuffling keeps the rank-frequency table exactly.
        problems = _report_problems(d / "an_shuf", self.chi_tokens)
        if (d / "an_shuf" / "rankfreq.csv").read_bytes() != (d / "an_src" / "rankfreq.csv").read_bytes():
            problems.append("shuffled rankfreq.csv differs from the source's")
        return problems


def _token_file_problems(path: Path, tokens: int) -> list[str]:
    """The token file holds `tokens` lines; a metadata file beside it, if
    any, agrees."""
    lines = path.read_text(encoding="utf-8").count("\n")
    problems = [] if lines == tokens else [f"{path.name} holds {lines} tokens, expected {tokens}"]
    meta = Path(str(path) + ".meta.json")
    if meta.exists():
        length = json.loads(meta.read_text(encoding="utf-8"))["length"]
        if length != tokens:
            problems.append(f"{meta.name} gives length {length}, expected {tokens}")
    return problems


def _report_problems(out: Path, tokens: int) -> list[str]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = [] if report["m"] == tokens else [f"report m={report['m']}, expected {tokens}"]
    if report["gamma"] is None and "acf_skipped" not in report:
        problems.append("no gamma and no reason for skipping it")
    return problems


def _figure_problems(d: Path) -> list[str]:
    # The figure refits gamma from acf.csv, which stores every value with
    # repr(), so the fit must reproduce the report's gamma exactly.
    manifest = json.loads((d / "fig_acf" / "manifest.json").read_text(encoding="utf-8"))
    gamma = json.loads((d / "an_src" / "report.json").read_text(encoding="utf-8"))["gamma"]
    if manifest["fit"]["exponent"] != gamma:
        return [f"figure fit exponent {manifest['fit']['exponent']!r} != report gamma {gamma!r}"]
    return []


def corpus(seed: int, length: int, workdir: Path) -> CorpusWorkload:
    text, truth = make_transcript(seed, length)
    path = workdir / "transcript.cha"
    path.write_text(text, encoding="utf-8")
    return CorpusWorkload("corpus", path, seed, truth.kept["CHI"], truth.dropped["CHI"])


WORKLOADS = {"sweep_copy": sweep_copy, "sweep_py": sweep_py, "corpus": corpus}
