"""Long-range correlation analysis for symbol sequences.

The pipeline turns a token sequence into the sequence of gaps between
successive occurrences of its rarest types (the rarest 1/N of all tokens,
N = 16 by default), evaluates the autocorrelation of that interval sequence
on a geometric offset grid, and fits power laws to the autocorrelation
curve, the rank-frequency table, and the type-token growth curve.

A sequence is judged long-range correlated when every autocorrelation value
at offsets below 10 is positive; a single negative early value rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .seqcore import (
    AcfCurve,
    CurveTooShortError,
    DataError,
    IntervalSequence,
    PowerLawFit,
    RankFrequency,
    TokenSequence,
    TypeTokenCurve,
    _BLOCK,
    _centred,
    _spans,
    log_grid,
)

DEFAULT_RARITY = 16
SMALL_OFFSET_LIMIT = 10
MIN_CURVE_LENGTH = 200
_DOT_PIECE = 8192  # elements per np.dot call of the autocorrelation sums


def _acf(series: Sequence[float] | np.ndarray) -> Callable[[int], float]:
    """C(s) of a series as a function of the offset s, the series centred
    once; C(0) is 1.0. A degenerate series raises DataError here, before
    any offset is evaluated: a constant one before it is centred, so that
    no float copy of it is made and an inexact float mean cannot leave it a
    tiny variance; one whose variance underflows to zero after."""
    arr = np.asarray(series)
    if arr.size and arr.min() == arr.max():
        raise DataError("degenerate series")
    devs, _, variance = _centred(arr)
    if variance <= 0.0:
        raise DataError("degenerate series")
    m = devs.size
    return lambda s: 1.0 if s == 0 else _dot(devs[:-s], devs[s:]) / (m - s) / variance


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y as a front-to-back sum of np.dot over pieces of _DOT_PIECE
    elements. OpenBLAS's x86-64 ddot splits a vector of over 10,000
    elements across its threads, whose partial sums round differently with
    each thread count; a piece runs on the calling thread, so the sum is
    the same under any BLAS thread setting and starts no thread. Vectors
    of at most one piece give the bits of a single np.dot."""
    total = np.dot(x[:_DOT_PIECE], y[:_DOT_PIECE])
    for lo in range(_DOT_PIECE, x.size, _DOT_PIECE):
        total += np.dot(x[lo : lo + _DOT_PIECE], y[lo : lo + _DOT_PIECE])
    return float(total)


def autocorrelation(series: Sequence[float] | np.ndarray, s: int) -> float:
    """Normalized autocovariance at offset s:

        C(s) = (1 / ((M - s) * sigma**2)) * sum_{i=1..M-s} (r_i - mu)(r_{i+s} - mu)

    with mu and sigma the mean and population standard deviation of the whole
    series, from the same centring as `moments`. C(0) is 1.0 by definition.
    A constant series raises DataError("degenerate series"), even where its
    inexact float mean would leave a tiny non-zero variance, and so does a
    series whose variance underflows to zero.
    """
    if not 0 <= s < len(series):
        raise DataError("offset out of range")
    return _acf(series)(s)


def select_rare_set(seq: TokenSequence, n: int = DEFAULT_RARITY) -> np.ndarray:
    """Ids of the rarest types jointly covering about one Nth of all tokens,
    as an ascending int64 array.

    Types are taken in (ascending frequency, ascending first occurrence)
    order until their total token count reaches floor(M / n): the largest
    prefix not exceeding the target is kept, plus one more type if the
    count is still short of it.
    """
    if n < 2:
        raise DataError("rarity divisor must be at least 2")
    if seq.m < n:
        raise DataError("sequence too short")
    freqs = seq.counts
    target = seq.m // n
    # covered[f]: tokens of all types with frequency <= f. Every type below
    # the first level f where that exceeds the target is taken; the prefix
    # ends inside level f, whose earliest types by first position are its
    # first in id order, as ids follow first occurrence.
    # A type above the target crosses it alone, so when there is one, the
    # frequencies are clipped at top + 1, where `top` is the largest at or
    # below the target: that overflow level is weighted target + 1 so that
    # it crosses, and if f lands there, the level is the least frequency
    # above the target. The histogram is scattered a block of types at a
    # time, as np.bincount would cast the frequencies to a whole int64
    # copy, and becomes the token counts in place.
    top = int(freqs.max())
    if top > target:
        top = int(np.max(freqs, where=freqs <= target, initial=0))
    covered = np.zeros(top + 2, dtype=np.int64)
    for lo, hi in _spans(0, freqs.size):
        np.add.at(covered, np.minimum(freqs[lo:hi], top + 1), 1)
    covered[top + 1] *= target + 1
    covered[: top + 1] *= np.arange(top + 1)
    np.cumsum(covered, out=covered)
    level = int(np.searchsorted(covered, target, side="right"))
    below = int(covered[level - 1])
    if level > top:
        level = int(freqs[freqs > target].min())
    take = -(-(target - below) // level)  # ceiling: the last type may overshoot
    mask = freqs < level
    # the first `take` types of the level, marked a block of types at a
    # time, so that no index array of the whole level is made
    for lo, hi in _spans(0, freqs.size):
        if not take:
            break
        at = np.flatnonzero(freqs[lo:hi] == level)[:take]
        mask[lo:hi][at] = True
        take -= at.size
    return np.flatnonzero(mask)


def extract_intervals(seq: TokenSequence, rare: np.ndarray | Iterable[int]) -> IntervalSequence:
    """Gaps between successive occurrences of any rare-set token (an id array
    or any iterable of ints), merged over the whole set. The interval count
    is the occurrence count minus one.

    The rare positions are the one whole-length int64 array, sized by the
    rare types' counts, which also tell whether there are two: each block
    of ids is marked in one block-sized bool buffer and its rare positions
    written straight into the array. They are turned into gaps in place, a
    block at a time from the front, each block reading the still-unchanged
    first position of the next, and handed to the IntervalSequence without
    a copy. When every type is rare, every gap is 1, and the gaps are a
    read-only broadcast of 1 that takes no memory."""
    rare_ids = np.asarray(rare, np.int64) if isinstance(rare, np.ndarray) else np.fromiter(rare, np.int64)
    if rare_ids.size == 0:
        raise DataError("insufficient occurrences")
    if rare_ids.min() < 0:
        raise DataError("negative symbol id")
    mask = np.zeros(seq.k, dtype=bool)
    mask[rare_ids[rare_ids < mask.size]] = True  # an id of no type is ignored
    if mask.all():
        if seq.m < 2:
            raise DataError("insufficient occurrences")
        return IntervalSequence._adopt(np.broadcast_to(np.int64(1), seq.m - 1))
    n_rare = int(np.sum(seq.counts, where=mask))
    if n_rare < 2:
        raise DataError("insufficient occurrences")
    gaps = np.empty(n_rare, dtype=np.int64)
    # np.take casts a block of int32 ids to indices at a time; mask[tokens]
    # would cast them one small buffer at a time, at twice the cost
    is_rare = np.empty(min(seq.m, _BLOCK), dtype=bool)
    n = 0
    for lo, hi in _spans(0, seq.m):
        mask.take(seq.tokens[lo:hi], out=is_rare[: hi - lo])
        at = np.flatnonzero(is_rare[: hi - lo])
        at += lo
        gaps[n : n + at.size] = at
        n += at.size
    for lo, hi in _spans(0, gaps.size - 1):
        np.subtract(gaps[lo + 1 : hi + 1], gaps[lo:hi], out=gaps[lo:hi])
    return IntervalSequence._adopt(gaps[:-1])


def acf_curve(ints: IntervalSequence) -> AcfCurve:
    """Autocorrelation of the interval sequence at geometric offsets
    s = round(10**(k/20)), k = 0, 1, ..., up to floor(M_N / 100). All
    evaluated points are returned, including negative ones."""
    m_n = ints.m_n
    if m_n < MIN_CURVE_LENGTH:
        raise CurveTooShortError("interval sequence too short for curve")
    acf = _acf(ints.intervals)
    grid = log_grid(m_n // 100)
    return AcfCurve(grid, [acf(s) for s in grid.tolist()], source_length=m_n)


def fit_power_law(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray, decay: bool = True
) -> PowerLawFit:
    """Ordinary least squares on (log10 x, log10 y) over the points of the
    equal-length array-likes x and y where both are positive.

    With decay=True (the default) the slope is negated so that decay
    exponents come out positive; decay=False reports the signed slope, as
    appropriate for growth laws. The amplitude is the fitted y at x = 1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = (x > 0.0) & (y > 0.0)
    used = int(np.count_nonzero(keep))
    if used < 2:
        raise DataError("not enough positive points")
    lx = np.log10(x[keep])
    ly = np.log10(y[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    error = float(np.sqrt(np.sum(residuals**2))) / used
    return PowerLawFit(
        exponent=float(-slope if decay else slope),
        amplitude=float(10.0**intercept),
        fit_error_per_point=error,
        n_points_used=used,
        n_points_excluded=x.size - used,
    )


def rank_frequency(seq: TokenSequence) -> RankFrequency:
    """Exhaustive type frequencies in descending order. Only the frequencies
    are kept, so the order among tied types cannot show. A copy of `counts`
    is sorted in place at the table's own width, which is that of the
    counts below 2**31 tokens."""
    freqs = seq.counts.astype(RankFrequency._dtype(seq.counts))
    freqs.sort()
    return RankFrequency._adopt(freqs[::-1])


def fit_heaps(curve: TypeTokenCurve) -> PowerLawFit:
    """Vocabulary-growth exponent: signed log-log slope of V(m), fitted over
    samples with m >= 10. Below that, integer prefix lengths cannot fill the
    geometric grid (every integer is present, over-weighting the first
    decade) and the counts are dominated by seed noise. Curves without two
    such samples fall back to the full range."""
    keep = curve.sizes >= 10
    if np.count_nonzero(keep) < 2:
        keep = slice(None)
    return fit_power_law(curve.sizes[keep], curve.vocab[keep], decay=False)


def _grid_to(limit: int) -> np.ndarray:
    """log_grid(limit), ending at limit itself (limit >= 1)."""
    grid = log_grid(limit)
    return grid if int(grid[-1]) == limit else np.append(grid, limit)


def fit_zipf(rank: RankFrequency) -> PowerLawFit:
    """Rank-frequency decay exponent, fitted at geometrically subsampled
    ranks (always including the last) so every decade weighs equally."""
    freqs = rank.frequencies
    grid = _grid_to(freqs.size)
    return fit_power_law(grid, freqs[grid - 1], decay=True)


def type_token_curve(seq: TokenSequence) -> TypeTokenCurve:
    """Vocabulary size V(m) over prefixes of length m, sampled at geometric
    m (20 points per decade) and always including m = M: the largest id of
    the prefix plus 1, as the ids are dense and follow first occurrence.
    The largest id of each stretch between grid points, accumulated, is
    that of each prefix."""
    grid = _grid_to(seq.m)
    top = np.maximum.reduceat(seq.tokens, np.concatenate(([0], grid[:-1])))
    np.maximum.accumulate(top, out=top)
    top += 1
    return TypeTokenCurve(grid, top)


@dataclass(frozen=True)
class LrcVerdict:
    """Outcome of the long-range correlation check, with the offending
    small-offset points when it fails."""

    holds: bool
    reason: str
    offending: tuple[tuple[int, float], ...] = ()

    def __bool__(self) -> bool:
        return self.holds


def judge_lrc(curve: AcfCurve) -> LrcVerdict:
    """Long-range correlation holds iff every curve point with s < 10 is
    positive."""
    small = curve.offsets < SMALL_OFFSET_LIMIT
    if not small.any():
        raise DataError("curve lacks small offsets")
    bad = small & (curve.values <= 0.0)
    offending = tuple(zip(curve.offsets[bad].tolist(), curve.values[bad].tolist()))
    if offending:
        listed = ", ".join(f"s={s} (c={c:.6g})" for s, c in offending)
        return LrcVerdict(False, f"non-positive autocorrelation at {listed}", offending)
    n_small = np.count_nonzero(small)
    return LrcVerdict(True, f"all {n_small} points below offset {SMALL_OFFSET_LIMIT} are positive")


@dataclass(frozen=True)
class AnalysisReport:
    """Bundle of the curves, fits, and the long-range correlation verdict
    for one sequence. `n` is None when the rare set was forced."""

    n: int | None
    m: int
    rank: RankFrequency
    typetoken: TypeTokenCurve
    intervals: IntervalSequence | None
    acf: AcfCurve | None
    gamma_fit: PowerLawFit | None
    zipf_fit: PowerLawFit
    heaps_fit: PowerLawFit
    verdict: LrcVerdict | None
    acf_skipped: str | None = None

    @property
    def m_n(self) -> int | None:
        return self.intervals.m_n if self.intervals is not None else None

    @property
    def gamma(self) -> float | None:
        return self.gamma_fit.exponent if self.gamma_fit is not None else None

    @property
    def gamma_fit_error(self) -> float | None:
        return self.gamma_fit.fit_error_per_point if self.gamma_fit is not None else None

    @property
    def zipf_exponent(self) -> float:
        return self.zipf_fit.exponent

    @property
    def heaps_exponent(self) -> float:
        return self.heaps_fit.exponent

    @property
    def lrc_verdict(self) -> bool | None:
        return self.verdict.holds if self.verdict is not None else None

    @property
    def negative_small_s_points(self) -> list[tuple[int, float]]:
        return list(self.verdict.offending) if self.verdict is not None else []

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "m": self.m,
            "m_n": self.m_n,
            "gamma": self.gamma,
            "gamma_fit_error": self.gamma_fit_error,
            "zipf_exponent": self.zipf_exponent,
            "heaps_exponent": self.heaps_exponent,
            "lrc_verdict": self.lrc_verdict,
            "negative_small_s_points": [[s, c] for s, c in self.negative_small_s_points],
        }
        if self.acf_skipped is not None:
            d["acf_skipped"] = self.acf_skipped
        return d


def analyze(
    seq: TokenSequence, n: int = DEFAULT_RARITY, rare: np.ndarray | Iterable[int] | None = None
) -> AnalysisReport:
    """Run the full pipeline on one sequence.

    The rare set is chosen by `select_rare_set` unless `rare` forces explicit
    ids (an id array or any iterable of ints). Sequences that cannot support
    the interval pipeline (shorter than the rarity divisor, fewer than two
    rare occurrences, or an interval sequence too short for a reliable
    curve) still yield the two corpus power laws; the skipped stage is
    recorded in the report. A degenerate (zero-variance) interval sequence
    is an error, not a skip. A forced rare set must occur at least twice,
    also as an error.

    Fit conventions: the rank-frequency fit uses ranks subsampled on the same
    geometric grid as the other curves, which weights every decade equally;
    the type-token fit drops samples with m < 10, where integer prefix
    lengths cannot fill the geometric grid (every integer is present, over-
    weighting the first decade) and the counts are dominated by seed noise.
    """
    ints: IntervalSequence | None = None
    skipped: str | None = None
    if rare is not None:
        ints = extract_intervals(seq, rare)
    elif seq.m >= n:
        rare_ids = select_rare_set(seq, n)
        try:
            ints = extract_intervals(seq, rare_ids)
        except DataError as exc:
            skipped = str(exc)
    else:
        skipped = "sequence too short"

    curve: AcfCurve | None = None
    gamma_fit: PowerLawFit | None = None
    verdict: LrcVerdict | None = None
    if ints is not None:
        try:
            curve = acf_curve(ints)
        except CurveTooShortError as exc:
            skipped = str(exc)
    if curve is not None:
        verdict = judge_lrc(curve)
        try:
            gamma_fit = fit_power_law(curve.offsets, curve.values, decay=True)
        except DataError as exc:
            skipped = f"gamma fit unavailable: {exc}"

    rank = rank_frequency(seq)
    zipf_fit = fit_zipf(rank)
    ttc = type_token_curve(seq)
    heaps_fit = fit_heaps(ttc)

    return AnalysisReport(
        n=n if rare is None else None,
        m=seq.m,
        rank=rank,
        typetoken=ttc,
        intervals=ints,
        acf=curve,
        gamma_fit=gamma_fit,
        zipf_fit=zipf_fit,
        heaps_fit=heaps_fit,
        verdict=verdict,
        acf_skipped=skipped,
    )
