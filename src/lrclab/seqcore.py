"""Core sequence types, elementary statistics, and the on-disk formats shared
by the analysis and generation modules.

All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import json
import math
import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

# Positions per block of every block-wise pass: the random draws, the (a, b)
# innovation screen, the generators' ids, the per-label scatters, and the
# lines or rows joined per write. The bigram resampler's spans of uniforms
# (genmodels._SPAN) are the one exception.
_BLOCK = 1 << 14
GRID_PER_DECADE = 20  # points per decade of every log_grid


class DataError(ValueError):
    """The input data cannot support the requested computation."""


class CurveTooShortError(DataError):
    """An interval sequence is too short for a reliable autocorrelation curve."""


def _centred(xs: Sequence[float] | np.ndarray) -> tuple[np.ndarray, float, float]:
    """(devs, mean, variance) of a non-empty series: a float64 copy minus
    its mean, the mean, and the population variance (divide by count).

    Raises DataError("empty series") on empty input."""
    devs = np.array(xs, dtype=np.float64)
    if devs.size == 0:
        raise DataError("empty series")
    mean = float(devs.mean())
    devs -= mean
    return devs, mean, float(np.mean(devs * devs))


def moments(xs: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Mean and population standard deviation (divide by count, no Bessel
    correction) of a series.

    Raises DataError("empty series") on empty input.
    """
    _, mean, variance = _centred(xs)
    return mean, math.sqrt(variance)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def id_dtype(m: int) -> type:
    """Integer type of the ids of a sequence of m tokens: int32 while every
    position fits, as every id of a TokenSequence, dense in
    first-occurrence order, is below the length, and int64 from m = 2**31
    on. `TokenSequence.counts` takes it too, as no count exceeds the
    length, and so does a `RankFrequency`, by its largest frequency;
    interval and rare-id arrays stay int64. Every consumer reads ids and
    frequencies of either width, and no output byte depends on it."""
    return np.int32 if m < 2**31 else np.int64


def _spans(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Consecutive [start, stop) blocks of at most _BLOCK covering [lo, hi)."""
    for start in range(lo, hi, _BLOCK):
        yield start, min(start + _BLOCK, hi)


_F = TypeVar("_F", bound="_Frozen")


class _Frozen:
    """Equality and length of the frozen array types below: equal when of
    the same type with every field equal, arrays by content; the length is
    the size of the first field. Defining __eq__ leaves them unhashable."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    @staticmethod
    def _dtype(arr: np.ndarray) -> type:
        """Integer type of the first field when it holds the values of `arr`."""
        return np.int64

    def __post_init__(self) -> None:
        # The one-array types' constructor: their `_own` checks an int64 copy.
        self._own(np.array(getattr(self, fields(self)[0].name), dtype=np.int64))

    @classmethod
    def _adopt(cls: type[_F], arr: np.ndarray, **rest: object) -> _F:
        """An instance over an array of the first field's type that the
        caller hands over as that field, with `rest` its other fields by
        name: the array is frozen in place, not copied, so the caller must
        not keep a writable reference to it. `_own` runs the constructor's
        checks on it."""
        assert arr.dtype == cls._dtype(arr), "only an array of the field's type can be adopted"
        obj = object.__new__(cls)
        for name, value in rest.items():
            object.__setattr__(obj, name, value)
        obj._own(arr)
        return obj


@dataclass(frozen=True, eq=False)
class TokenSequence(_Frozen):
    """Ordered symbol ids (one per token position) with an optional id -> surface
    table. The ids are dense and in first-occurrence order: the first is 0,
    and each exceeds the largest before it by at most 1, so the types are
    0..k-1 and a type's id orders it by first position. The constructor
    and `_adopt` both check it, a block at a time, and raise DataError
    otherwise; `genmodels._relabel_first_occurrence` turns any labels into
    such ids. They are stored as `id_dtype(m)`: the constructor narrows
    its copy after the check, where every id is below the length. The
    check keeps the largest id, so the read-only int `k`, the number of
    types, is that plus 1.
    """

    tokens: np.ndarray
    symbols: tuple[str, ...] | None = None

    @staticmethod
    def _dtype(arr: np.ndarray) -> type:
        return id_dtype(arr.size)

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("empty input")
        if arr.min() < 0:
            raise DataError("negative symbol id")
        # the largest id so far, a block at a time: it starts at 0 and
        # rises by 1 at each new id, so its rises in a block count them
        top, high = np.empty(min(arr.size, _BLOCK) + 1, dtype=arr.dtype), -1
        for lo, hi in _spans(0, arr.size):
            run = top[1 : hi - lo + 1]
            np.maximum.accumulate(arr[lo:hi], out=run)
            np.maximum(run, high, out=run)
            top[0] = high
            if int(run[-1]) - high != np.count_nonzero(run != top[: hi - lo]):
                raise DataError("ids must be dense and in first-occurrence order")
            high = int(run[-1])
        # narrows the constructor's int64 copy: every id is below the length
        arr = arr.astype(self._dtype(arr), copy=False)
        if self.symbols is not None:
            table = tuple(self.symbols)
            if high >= len(table):
                raise DataError("symbol table does not cover all ids")
            object.__setattr__(self, "symbols", table)
        object.__setattr__(self, "tokens", _freeze(arr))
        object.__setattr__(self, "k", high + 1)

    @property
    def m(self) -> int:
        """Total token count."""
        return int(self.tokens.size)

    @cached_property
    def counts(self) -> np.ndarray:
        """The token count of each type 0..k-1, read-only, as `id_dtype(m)`.
        Scattered one block at a time, so no whole-length temporary is
        built and the read-only ids are not copied, as np.bincount would."""
        counts = np.zeros(self.k, dtype=self.tokens.dtype)
        # An operand of the array's own type: numpy 2.4 runs ufunc.at on
        # int32 with a Python 1 on a slow path, 20-30 times as long
        one = counts.dtype.type(1)
        for lo, hi in _spans(0, self.m):
            np.add.at(counts, self.tokens[lo:hi], one)
        return _freeze(counts)

    def surface(self, token_id: int) -> str:
        if self.symbols is not None:
            return self.symbols[token_id]
        return f"w{token_id}"

    def surfaces(self) -> Iterator[str]:
        return map(self.surface, self.tokens.tolist())


def sequence_from_surface(surfaces: Iterable[str]) -> TokenSequence:
    """Build a TokenSequence from surface tokens, assigning ids in
    first-occurrence order."""
    ids: dict[str, int] = {}
    out = array("i")  # int32: an id above 2**31 - 1 raises OverflowError
    append = out.append
    for tok in surfaces:
        i = ids.get(tok)
        if i is None:
            i = len(ids)
            ids[tok] = i
        append(i)
    tokens = np.frombuffer(out, dtype=np.int32)
    # widened only from 2**31 tokens on
    return TokenSequence._adopt(tokens.astype(id_dtype(tokens.size), copy=False), symbols=tuple(ids))


@dataclass(frozen=True, eq=False)
class IntervalSequence(_Frozen):
    """Position gaps between successive occurrences of the rare-token set.
    The count of intervals is one less than the number of rare-token
    occurrences. The gaps are the only field: their mean and variance are
    computed where they are needed, when the autocorrelation centres them.
    The constructor copies the caller's array; `extract_intervals` hands
    its own gap array over through `_adopt`, uncopied.
    """

    intervals: np.ndarray

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("empty interval sequence")
        if arr.min() < 1:
            raise DataError("intervals must be positive")
        object.__setattr__(self, "intervals", _freeze(arr))

    @property
    def m_n(self) -> int:
        """Interval count (number of rare occurrences minus one)."""
        return int(self.intervals.size)


@dataclass(frozen=True, eq=False)
class AcfCurve(_Frozen):
    """Autocorrelation `values` C(s) (float64) at geometric `offsets` s (int64).

    `source_length` is the length of the analyzed series; offsets never
    exceed source_length // 100, past which the estimates are unreliable.
    """

    offsets: np.ndarray
    values: np.ndarray
    source_length: int

    def __post_init__(self) -> None:
        s = np.array(self.offsets, dtype=np.int64)
        c = np.array(self.values, dtype=np.float64)
        if s.ndim != 1 or s.size == 0 or s.shape != c.shape:
            raise DataError("malformed autocorrelation curve")
        if s.min() < 1 or np.any(np.diff(s) <= 0):
            raise DataError("offsets must be strictly increasing positive integers")
        if int(s.max()) > self.source_length // 100:
            raise DataError("offsets exceed the reliable range")
        if not np.all(np.isfinite(c)):
            raise DataError("non-finite correlation value")
        object.__setattr__(self, "offsets", _freeze(s))
        object.__setattr__(self, "values", _freeze(c))


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares power law in log10-log10 space.

    `exponent` is reported positive for decay laws (y ~ x**-exponent); for
    growth laws it is the signed log-log slope. `amplitude` is the fitted
    value at x = 1. The per-point error is sqrt(sum of squared log-space
    residuals) divided by the number of fitted points.
    """

    exponent: float
    amplitude: float
    fit_error_per_point: float
    n_points_used: int
    n_points_excluded: int

    def __post_init__(self) -> None:
        if self.n_points_used < 2:
            raise DataError("not enough positive points")
        if self.fit_error_per_point < 0:
            raise DataError("negative fit error")


@dataclass(frozen=True, eq=False)
class RankFrequency(_Frozen):
    """Type frequencies in descending order; frequencies[i] has rank i + 1.
    They are stored as `id_dtype` of the largest: int32 while it is below
    2**31, as in every table of fewer than 2**31 tokens, else int64.
    The constructor checks an int64 copy of the caller's array and narrows
    it after the check; `rank_frequency` hands its own sorted array over
    through `_adopt`, uncopied."""

    frequencies: np.ndarray

    @staticmethod
    def _dtype(arr: np.ndarray) -> type:
        return id_dtype(int(arr.max(initial=0)))

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("empty rank-frequency table")
        if arr.min() < 1:
            raise DataError("frequencies must be positive")
        if np.any(arr[1:] > arr[:-1]):
            raise DataError("frequencies must be non-increasing")
        arr = arr.astype(self._dtype(arr), copy=False)
        object.__setattr__(self, "frequencies", _freeze(arr))


@dataclass(frozen=True, eq=False)
class TypeTokenCurve(_Frozen):
    """Vocabulary size `vocab` V(m) at geometrically spaced prefix lengths `sizes` m."""

    sizes: np.ndarray
    vocab: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.sizes, dtype=np.int64)
        v = np.array(self.vocab, dtype=np.int64)
        if m.ndim != 1 or m.size == 0 or m.shape != v.shape:
            raise DataError("malformed type-token curve")
        if m.min() < 1 or np.any(np.diff(m) <= 0):
            raise DataError("prefix lengths must be strictly increasing")
        if np.any(np.diff(v) < 0) or np.any(v > m) or v.min() < 1:
            raise DataError("vocabulary sizes must be non-decreasing and <= m")
        if int(m[0]) == 1 and int(v[0]) != 1:
            raise DataError("one token means one type")
        object.__setattr__(self, "sizes", _freeze(m))
        object.__setattr__(self, "vocab", _freeze(v))


# ---------------------------------------------------------------------------
# File formats: whitespace token files and CSV curve outputs.
# All CSVs carry a header row, '.' decimal point and '\n' newlines.
# ---------------------------------------------------------------------------


@contextmanager
def open_output(path: str | Path) -> Iterator[TextIO]:
    """Open an output file for writing UTF-8 text with '\\n' newlines, and
    replace `path` with it atomically when the block completes.

    The text goes to a pid-named temporary file in the target's directory,
    which is renamed onto the target at the end and deleted on any
    exception, so an existing target keeps its bytes. The rename is atomic;
    nothing is fsynced, so this does not guard against power loss. Every
    output of lrclab is written through here."""
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path: str | Path, kind: str = "") -> str:
    """The UTF-8 text of an input file, or DataError "cannot read [<kind> ]<path>: <reason>".

    It holds the whole text, twice while it decodes: it serves the small
    JSON and CSV inputs. Token files and transcripts go through
    `read_blocks`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {kind + ' ' if kind else ''}{path}: {exc}") from exc


def split_blocks(chunks: Iterable[str], sep: re.Pattern, size: int) -> Iterator[str]:
    """The text that `chunks` join to, cut at matches of `sep`, each the
    first that starts at least `size` characters past the previous cut. The
    separators at the cuts are left out: joined with them, the blocks give
    back the text. `sep` matches one character, maybe only where a given
    character follows it: a match found stands, and the last character is
    tried again once the next is in. Past the last cut, only the chunks up
    to the next cut are held."""
    chunks = iter(chunks)
    buf, pos = "", 0  # the text past the last cut is buf[pos:]
    skip = size  # no match starts in buf[pos + size : pos + skip]
    ended = False
    while True:
        if len(buf) - pos > size:
            m = sep.search(buf, pos + skip)
            if m is not None:
                yield buf[pos : m.start()]
                pos, skip = m.end(), size
                continue
        if ended:
            yield buf[pos:]
            return
        # every character but the last has been tried with the one after it
        skip = max(size, len(buf) - pos - 1)
        chunk = next(chunks, None)
        if chunk is None:
            ended = True
        else:
            buf, pos = buf[pos:] + chunk, 0


def read_blocks(path: str | Path, sep: re.Pattern, size: int) -> Iterator[str]:
    """The blocks `split_blocks` cuts from the text of an input file, read
    `size` characters at a time and decoded as `read_text` decodes it, so
    that only the chunks up to the next cut and a block are held, never
    the whole text. A file that cannot be read or decoded raises
    read_text's DataError: read_text reads it again, so that a bad byte
    is located in the whole file, not in a chunk."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from split_blocks(iter(partial(fh.read, size), ""), sep, size)
    except (OSError, UnicodeDecodeError) as exc:
        read_text(path)  # raises the same error, located in the whole file
        raise DataError(f"cannot read {path}: {exc}") from exc


def write_json(path: str | Path, payload: dict) -> None:
    """Write `payload` as indented JSON with a trailing newline."""
    with open_output(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def write_token_file(seq: TokenSequence, path: str | Path) -> None:
    """Write one surface token per line (ids render as w<id> when there is
    no symbol table). A symbol that is empty or holds whitespace would not
    read back as one token: it is a DataError, raised before any file is made."""
    if seq.symbols:
        joined = "".join(seq.symbols)
        if "" in seq.symbols or joined.split() != [joined]:
            bad = next(s for s in seq.symbols if s.split() != [s])
            raise DataError(f"symbol {bad!r} is not one token: it is empty or holds whitespace")
    names = seq.symbols or list(map(seq.surface, range(seq.k)))
    table = np.array(names, dtype=object)
    # One block of lines at a time; each block ends in a newline, as the file does.
    with open_output(path) as fh:
        for lo, hi in _spans(0, seq.m):
            fh.write("\n".join(table[seq.tokens[lo:hi]].tolist()))
            fh.write("\n")


def _write_csv(path: str | Path, header: str, rows: Iterable[str]) -> None:
    """The header line, then one line per row, each ending in a newline,
    written _BLOCK rows at a time."""
    rows = iter(rows)
    with open_output(path) as fh:
        fh.write(header + "\n")
        while block := list(islice(rows, _BLOCK)):
            fh.write("\n".join(block) + "\n")


def _items(values: np.ndarray) -> Iterator:
    """The values of a 1-d array as Python scalars, converted _BLOCK at a time."""
    return chain.from_iterable(values[lo:hi].tolist() for lo, hi in _spans(0, values.size))


def _read_csv(path: str | Path, expected_header: str) -> list[list[str]]:
    text = read_text(path)
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != expected_header:
        raise DataError(f"expected CSV header '{expected_header}' in {path}")
    rows = [ln.split(",") for ln in lines[1:]]
    width = expected_header.count(",") + 1
    if any(len(row) != width for row in rows):
        raise DataError(f"expected {width} fields in every row of {path}")
    return rows


def write_acf_csv(curve: AcfCurve, path: str | Path) -> None:
    _write_csv(
        path,
        "s,c",
        (f"{s},{c!r}" for s, c in zip(_items(curve.offsets), _items(curve.values))),
    )


def read_acf_csv(path: str | Path, source_length: int) -> AcfCurve:
    """Read an `s,c` CSV back into a curve. The source series length is not
    part of the CSV and must be supplied (the analysis report carries it)."""
    rows = _read_csv(path, "s,c")
    try:
        s = [int(r[0]) for r in rows]
        c = [float(r[1]) for r in rows]
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return AcfCurve(np.array(s), np.array(c), source_length=source_length)


def write_rank_frequency_csv(rank: RankFrequency, path: str | Path) -> None:
    _write_csv(path, "rank,freq", (f"{u},{f}" for u, f in enumerate(_items(rank.frequencies), start=1)))


def write_type_token_csv(curve: TypeTokenCurve, path: str | Path) -> None:
    _write_csv(path, "m,v", (f"{m},{v}" for m, v in zip(_items(curve.sizes), _items(curve.vocab))))


def write_intervals_csv(ints: IntervalSequence, path: str | Path) -> None:
    _write_csv(path, "interval", map(str, _items(ints.intervals)))


def log_grid(limit: int) -> np.ndarray:
    """Geometrically spaced integers 1..limit: round(10**(k / GRID_PER_DECADE))
    for k = 0, 1, 2, ..., deduplicated after rounding."""
    if limit < 1:
        return np.array([], dtype=np.int64)
    kmax = int(math.ceil(GRID_PER_DECADE * math.log10(limit))) + 1
    raw = np.round(10.0 ** (np.arange(kmax + 1) / GRID_PER_DECADE)).astype(np.int64)
    # raw is non-decreasing; np.unique would import numpy.ma on first use.
    vals = raw[np.concatenate(([True], raw[1:] != raw[:-1]))]
    return vals[vals <= limit]
