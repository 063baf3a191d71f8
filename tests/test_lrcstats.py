import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrclab
from lrclab.corpusio import read_tokens
from lrclab.genmodels import ModelParams, generate, shuffle
from lrclab.lrcstats import (
    acf_curve,
    analyze,
    autocorrelation,
    extract_intervals,
    fit_power_law,
    judge_lrc,
    rank_frequency,
    select_rare_set,
    type_token_curve,
)
from lrclab.seqcore import (
    AcfCurve,
    CurveTooShortError,
    DataError,
    IntervalSequence,
    TokenSequence,
    id_dtype,
    log_grid,
)

from dense_labels import dense

ROMEO = "Oh Romeo Romeo wherefore art thou Romeo"


def acf_oracle(series, s):
    """Direct double-loop evaluation of the autocorrelation definition."""
    m = len(series)
    mu = sum(series) / m
    var = sum((x - mu) ** 2 for x in series) / m
    total = 0.0
    for i in range(m - s):
        total += (series[i] - mu) * (series[i + s] - mu)
    return total / ((m - s) * var)


# Sort-based per-type statistics: the formulas the analysis used before
# `TokenSequence.counts`, kept as the oracles for it and its consumers.


def counts_oracle(seq):
    return np.bincount(seq.tokens)


def select_rare_set_oracle(seq, n):
    uniq, first_pos = np.unique(seq.tokens, return_index=True)
    freqs = np.bincount(seq.tokens)[uniq]
    order = np.lexsort((first_pos, freqs))
    cum = np.cumsum(freqs[order])
    target = seq.m // n
    k = int(np.searchsorted(cum, target, side="right"))
    if (k == 0 or cum[k - 1] < target) and k < uniq.size:
        k += 1
    return set(uniq[order[:k]].tolist())


def rank_frequency_oracle(seq):
    uniq, first_pos = np.unique(seq.tokens, return_index=True)
    freqs = np.bincount(seq.tokens)[uniq]
    return freqs[np.lexsort((first_pos, -freqs))]


def type_token_oracle(seq):
    _, first_pos = np.unique(seq.tokens, return_index=True)
    is_new = np.zeros(seq.m, dtype=np.int64)
    is_new[first_pos] = 1
    grid = log_grid(seq.m)
    if grid.size == 0 or int(grid[-1]) != seq.m:
        grid = np.append(grid, seq.m)
    return grid, np.cumsum(is_new)[grid - 1]


def assert_matches_oracle(seq):
    """Every per-type statistic equals its sorting oracle; counts holds the
    k types' counts and the frequency ranks their frequencies at the ids'
    width, and the rare ids are int64."""
    assert seq.counts.dtype == id_dtype(seq.m)
    assert np.array_equal(seq.counts, counts_oracle(seq))
    assert seq.counts.size == seq.k
    for n in (2, 16):
        if seq.m >= n:
            rare = select_rare_set(seq, n)
            assert isinstance(rare, np.ndarray) and rare.dtype == np.int64
            assert rare.tolist() == sorted(select_rare_set_oracle(seq, n))
    rank = rank_frequency(seq).frequencies
    assert rank.dtype == id_dtype(seq.m)
    assert np.array_equal(rank, rank_frequency_oracle(seq))
    sizes, vocab = type_token_oracle(seq)
    curve = type_token_curve(seq)
    assert np.array_equal(curve.sizes, sizes)
    assert np.array_equal(curve.vocab, vocab)


class TestAutocorrelation:
    def test_zero_offset_is_one(self):
        assert autocorrelation([3.0, 1.0, 4.0, 1.0, 5.0], 0) == 1.0

    def test_alternating_series(self):
        series = [1.0, -1.0] * 50
        value = autocorrelation(series, 1)
        assert value < 0
        assert value == pytest.approx(acf_oracle(series, 1), abs=1e-12)
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_iid_uniform_fluctuates_near_zero(self):
        rng = np.random.default_rng(7)
        series = rng.random(10**5)
        for s in range(1, 11):
            assert abs(autocorrelation(series, s)) < 0.05

    def test_degenerate(self):
        with pytest.raises(DataError, match="degenerate series"):
            autocorrelation([2.0, 2.0, 2.0], 1)

    @pytest.mark.parametrize("series", [
        [0.1] * 3,  # the float mean is inexact, so the variance is 1.9e-34, not 0
        [0.0, 1e-200],  # not constant, but the variance underflows to 0
    ], ids=["inexact_mean", "variance_underflow"])
    def test_degenerate_float_series(self, series):
        with pytest.raises(DataError, match="degenerate series"):
            autocorrelation(series, 1)

    @pytest.mark.parametrize("series,offsets,pinned", [
        ([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0], [1, 2, 3],
         [-0.16008905079943328, -0.03916211293260473, 0.3921415560759822]),
        ([0.1, 0.1, 0.1, 0.2], [1, 2], [-0.11111111111111119, -0.33333333333333337]),
        (np.random.default_rng(12).integers(1, 50, size=1000), [1, 5, 10],
         [-0.011079462637304922, -0.002656085693905504, -0.01062501739877631]),
    ], ids=["floats", "nearly_constant", "int_gaps"])
    def test_values_pinned(self, series, offsets, pinned):
        # bit for bit the values of the code before the constancy check
        assert [autocorrelation(series, s) for s in offsets] == pinned

    @pytest.mark.parametrize("length", [8193, 8194, 2 * 8192 + 2, 3 * 8192 + 1])
    def test_summed_in_pieces(self, length):
        # the products are summed 8192 at a time: at offset 1 these lengths
        # give exactly one piece, one element past it, and several pieces
        series = np.random.default_rng(length).integers(1, 50, size=length).tolist()
        for s in (1, 2, 80):
            assert autocorrelation(series, s) == pytest.approx(acf_oracle(series, s), abs=1e-12)

    def test_offset_out_of_range(self):
        with pytest.raises(DataError, match="offset out of range"):
            autocorrelation([1.0, 2.0], 2)

    @given(st.lists(st.integers(-1000, 1000), min_size=200, max_size=1200))
    @settings(max_examples=30, deadline=None)
    def test_oracle_equivalence(self, values):
        if len(set(values)) < 2:
            values[0] = values[0] + 1
        for s in log_grid(len(values) // 100).tolist():
            got = autocorrelation(values, s)
            assert got == pytest.approx(acf_oracle(values, s), abs=1e-9)


class TestSelectRareSet:
    def test_all_distinct(self):
        seq = TokenSequence(np.arange(32))
        rare = select_rare_set(seq, 16)
        assert len(rare) == 2

    def test_sequence_too_short(self):
        seq = TokenSequence(np.array([0, 1, 2]))
        with pytest.raises(DataError, match="sequence too short"):
            select_rare_set(seq, 16)

    def test_accumulation_rule(self):
        rng = np.random.default_rng(11)
        tokens = dense(rng.integers(0, 50, size=1000))
        seq = TokenSequence(tokens)
        rare = select_rare_set(seq, 16)
        counts = np.bincount(tokens, minlength=50)
        covered = int(sum(counts[i] for i in rare))
        target = 1000 // 16
        max_sel = int(max(counts[i] for i in rare))
        assert target - max_sel <= covered <= target + max_sel

    def test_prefers_rarest_then_earliest(self):
        # types: 0 occurs 4x, 1 and 2 occur 2x each (1 first), 3 occurs 4x
        tokens = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 3, 0, 3])
        seq = TokenSequence(tokens)
        # target = 12 // 4 = 3: type 1 (freq 2) then type 2 would overshoot;
        # still below target after type 1, so one more type is added.
        rare = select_rare_set(seq, 4)
        assert rare.tolist() == [1, 2]

    def test_every_type_above_target(self):
        # target = 120 // 16 = 7, below every frequency (40): the first type
        # crosses the target by itself
        seq = TokenSequence(np.tile([0, 1, 2], 40))
        assert_matches_oracle(seq)
        assert select_rare_set(seq, 16).tolist() == [0]


class TestExtractIntervals:
    def test_romeo_single_target(self):
        seq = read_tokens(ROMEO)
        romeo = seq.symbols.index("romeo")
        ints = extract_intervals(seq, {romeo})
        assert ints.intervals.tolist() == [1, 4]

    def test_romeo_two_targets(self):
        seq = read_tokens(ROMEO)
        rare = {seq.symbols.index("romeo"), seq.symbols.index("wherefore")}
        ints = extract_intervals(seq, rare)
        assert ints.intervals.tolist() == [1, 1, 3]

    def test_adjacent_pair(self):
        seq = read_tokens("a b b a")
        ints = extract_intervals(seq, {seq.symbols.index("b")})
        assert ints.intervals.tolist() == [1]

    def test_insufficient_occurrences(self):
        seq = read_tokens("a b c")
        with pytest.raises(DataError, match="insufficient occurrences"):
            extract_intervals(seq, {0})

    def test_negative_id_rejected(self):
        # -1 must not index from the end and pick the intervals of id 2
        seq = TokenSequence(np.array([0, 1, 2, 1, 0, 2, 2]))
        for rare in ({-1}, np.array([-1])):
            with pytest.raises(DataError, match="negative symbol id"):
                extract_intervals(seq, rare)

    @given(st.lists(st.integers(0, 5), min_size=4, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_positions_reconstructable(self, ids):
        seq = TokenSequence(dense(ids))
        rare = {0, 1}
        positions = np.flatnonzero(np.isin(seq.tokens, list(rare)))
        if positions.size < 2:
            return
        ints = extract_intervals(seq, rare)
        rebuilt = positions[0] + np.cumsum(ints.intervals)
        assert np.array_equal(rebuilt, positions[1:])
        assert extract_intervals(seq, [1, 0]) == ints
        assert extract_intervals(seq, np.array([0, 1])) == ints

    @pytest.mark.parametrize("tokens,rare", [
        ([0, 0], [0]),
        ([0, 0, 0], [0, 5]),
        ([0, 1, 0, 0, 1], [1, 0]),
        (np.zeros(10**5, dtype=np.int64), [0]),
        (np.random.default_rng(4).integers(0, 3, size=2**14 + 5), [0, 1, 2, 10**6]),
    ])
    def test_all_rare_gaps_are_a_broadcast(self, tokens, rare):
        # every type present is rare, so every gap is 1: no position is gathered
        seq = TokenSequence(dense(tokens))
        ints = extract_intervals(seq, rare)
        assert ints.intervals.strides == (0,) and not ints.intervals.flags.writeable
        assert np.array_equal(ints.intervals, gaps_oracle(seq.tokens, rare))

    @pytest.mark.parametrize("length,outcome", [
        (1, (DataError, "insufficient occurrences")),
        (2, (CurveTooShortError, "too short")),
        (200, (CurveTooShortError, "too short")),
        (201, (DataError, "degenerate series")),
        (10**5, (DataError, "degenerate series")),
    ])
    def test_all_rare_outcomes(self, length, outcome):
        # below 200 intervals the curve is too short; from 200 on the
        # constant series is degenerate
        seq = TokenSequence(np.zeros(length, dtype=np.int64))
        error, message = outcome
        with pytest.raises(error, match=message):
            acf_curve(extract_intervals(seq, select_rare_set(seq, n=2) if length > 1 else [0]))


def gaps_oracle(tokens, rare):
    return np.diff(np.flatnonzero(np.isin(tokens, rare)))


def with_rare_occurrences(k, rng):
    """Tokens of length 3k over two common types, with a rare type placed
    at k random positions, and the rare type's id."""
    tokens = rng.choice(np.array([0, 2]), size=3 * k)
    at = rng.choice(3 * k, size=k, replace=False)
    tokens[at] = 1
    tokens = dense(tokens)
    return tokens, int(tokens[at[0]])


class TestExtractIntervalsInPlace:
    """The gaps are made in place, one block of 2**14 at a time: compare them
    with np.diff of the rare positions where the blocks end at an edge, one
    before it and one past it."""

    @pytest.mark.parametrize("length", [2**14 - 1, 2**14, 2**14 + 1, 2**14 + 2, 2 * 2**14 + 1])
    def test_lengths_across_block_edges(self, length):
        rng = np.random.default_rng(length)
        tokens = dense(rng.integers(0, 6, size=length))
        for rare in ([0], [1, 4], [0, 1, 2, 3, 4]):
            got = extract_intervals(TokenSequence(tokens), rare).intervals
            assert np.array_equal(got, gaps_oracle(tokens, rare))

    @pytest.mark.parametrize("length", [2**14 - 1, 2**14 + 1, 3 * 2**14 + 5])
    def test_forced_rare_sets_across_block_edges(self, length):
        # the rare positions are written a block of ids at a time: a rare
        # type sits on either side of each block edge, and the forced sets
        # repeat an id and name one of no type
        rng = np.random.default_rng(length)
        labels = rng.integers(0, 40, size=length)
        labels[rng.choice(length, size=9, replace=False)] = 42
        edges = np.arange(2**14, length, 2**14)
        labels[edges - 1], labels[edges] = 40, 41
        labels[[1, 2]] = 40, 41  # a length of one block has no edge
        labels[[0, length - 1]] = 43
        tokens = dense(labels)
        ids = {label: int(tokens[np.flatnonzero(labels == label)[0]]) for label in (40, 41, 42, 43)}
        k = int(tokens.max()) + 1
        for rare in ([ids[40], ids[41], ids[40]], [ids[42], ids[42], k], [ids[43], k + 5, ids[41]],
                     np.array([ids[40], ids[42], ids[43], 0, 0, k])):
            got = extract_intervals(TokenSequence(tokens), rare).intervals
            assert np.array_equal(got, gaps_oracle(tokens, rare))

    @pytest.mark.parametrize("k", [2, 2**14, 2**14 + 1, 2**14 + 2, 2 * 2**14 + 1])
    def test_rare_occurrence_counts(self, k):
        # k occurrences give k - 1 gaps: 2**14 + 1 fills one block exactly
        tokens, rare = with_rare_occurrences(k, np.random.default_rng(k))
        got = extract_intervals(TokenSequence(tokens), [rare]).intervals
        assert got.size == k - 1
        assert np.array_equal(got, gaps_oracle(tokens, [rare]))

    @pytest.mark.parametrize("length", [2, 2**14 + 1, 2 * 2**14 + 1])
    def test_all_rare(self, length):
        one_type = np.zeros(length, dtype=np.int64)
        assert np.array_equal(extract_intervals(TokenSequence(one_type), [0]).intervals,
                              np.ones(length - 1, dtype=np.int64))
        tokens = dense(np.random.default_rng(length).integers(0, 3, size=length))
        got = extract_intervals(TokenSequence(tokens), [0, 1, 2]).intervals
        assert np.array_equal(got, gaps_oracle(tokens, [0, 1, 2]))

    def test_rare_id_above_the_largest(self):
        tokens = dense(np.random.default_rng(9).integers(0, 4, size=2**14 + 7))
        for rare in ([1, 10**6], np.array([4, 3])):
            got = extract_intervals(TokenSequence(tokens), rare).intervals
            assert np.array_equal(got, gaps_oracle(tokens, rare))

    def test_gaps_read_only_and_caller_array_writable(self):
        tokens, rare = with_rare_occurrences(2**14 + 2, np.random.default_rng(3))
        ints = extract_intervals(TokenSequence(tokens), [rare])
        assert not ints.intervals.flags.writeable
        with pytest.raises(ValueError):
            ints.intervals[0] = 5
        caller = np.array(ints.intervals)
        copied = IntervalSequence(caller)
        assert caller.flags.writeable and not np.shares_memory(caller, copied.intervals)
        assert copied == ints


class TestAcfCurve:
    def test_grid_span(self):
        rng = np.random.default_rng(3)
        ints = IntervalSequence(rng.integers(1, 30, size=10**5))
        curve = acf_curve(ints)
        s = curve.offsets
        assert s[0] == 1
        assert s[-1] == 1000
        assert np.all(np.diff(s) > 0)
        last_decade = s[(s > 100) & (s <= 1000)]
        assert len(last_decade) == 20

    def test_too_short(self):
        ints = IntervalSequence(np.arange(1, 200))
        with pytest.raises(CurveTooShortError, match="too short for curve"):
            acf_curve(ints)

    def test_matches_scalar_op(self):
        rng = np.random.default_rng(5)
        ints = IntervalSequence(rng.integers(1, 10, size=500))
        curve = acf_curve(ints)
        for s, c in zip(curve.offsets.tolist(), curve.values.tolist()):
            assert c == pytest.approx(autocorrelation(ints.intervals, s), abs=1e-12)

    def test_independent_of_blas_threads(self):
        # a series long enough for OpenBLAS to split one dot product across
        # threads: every C(s) must have the same bits under any thread count
        code = (
            "import numpy as np\n"
            "from lrclab.lrcstats import acf_curve\n"
            "from lrclab.seqcore import IntervalSequence\n"
            "ints = IntervalSequence(np.random.default_rng(7).geometric(1 / 16, size=10**5))\n"
            "print([repr(c) for c in acf_curve(ints).values.tolist()])\n"
        )
        src = str(Path(lrclab.__file__).resolve().parents[1])
        # OpenBLAS falls back on these when OPENBLAS_NUM_THREADS is unset
        limits = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in limits}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2", None):
            run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run(
                [sys.executable, "-c", code], env=run_env, capture_output=True, text=True, check=True, timeout=60
            )
            outputs.append(out.stdout)
        assert outputs[0] == outputs[1] == outputs[2]


class TestFitPowerLaw:
    def test_exact_decay(self):
        xs = np.array([1.0, 2.0, 5.0, 10.0, 50.0])
        fit = fit_power_law(xs, 3.0 * xs**-0.5)
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-12)
        assert fit.fit_error_per_point == pytest.approx(0.0, abs=1e-12)
        assert fit.n_points_used == 5
        assert fit.n_points_excluded == 0

    def test_growth_sign(self):
        xs = np.array([1.0, 10.0, 100.0])
        fit = fit_power_law(xs, 2.0 * xs**0.68, decay=False)
        assert fit.exponent == pytest.approx(0.68, abs=1e-12)

    def test_negative_points_excluded(self):
        fit = fit_power_law([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, -0.2, 0.25])
        assert fit.n_points_used == 3
        assert fit.n_points_excluded == 1

    def test_not_enough_points(self):
        with pytest.raises(DataError, match="not enough positive points"):
            fit_power_law([1.0, 2.0], [1.0, -1.0])

    def test_noisy_recovery(self):
        rng = np.random.default_rng(17)
        xs = log_grid(10**4).astype(float)
        noise = rng.normal(0.0, 0.01, size=xs.size)
        ys = 2.0 * xs**-0.7 * 10.0**noise
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.7, abs=0.02)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_covariance(self, k):
        xs = np.array([1.0, 3.0, 10.0, 30.0])
        ys = np.array([2.0, 1.1, 0.5, 0.2])
        base = fit_power_law(xs, ys)
        scaled = fit_power_law(xs, k * ys)
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-9)
        assert scaled.amplitude == pytest.approx(k * base.amplitude, rel=1e-9)
        assert scaled.fit_error_per_point == pytest.approx(
            base.fit_error_per_point, abs=1e-9
        )

    def test_int64_arrays_fit_as_float64(self):
        xs = np.array([1, 2, 3, 5, 8, 13, 21], dtype=np.int64)
        ys = np.array([900, 410, 300, 170, 95, 61, 40], dtype=np.int64)
        for decay in (True, False):
            fit = fit_power_law(xs, ys, decay=decay)
            assert fit == fit_power_law(xs.astype(np.float64), ys.astype(np.float64), decay=decay)

    def test_non_positive_x_excluded(self):
        fit = fit_power_law([0.0, -1.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 0.5, -0.2, 0.0])
        assert fit.n_points_used == 2
        assert fit.n_points_excluded == 4

    def test_fit_error_definition(self):
        # sqrt of summed squared log10 residuals, divided by point count
        xs, ys = [1.0, 10.0, 100.0], [1.0, 1.0, 10.0]
        fit = fit_power_law(xs, ys, decay=False)
        lx = np.log10(xs)
        ly = np.log10(ys)
        slope, intercept = np.polyfit(lx, ly, 1)
        sse = np.sum((ly - slope * lx - intercept) ** 2)
        assert fit.fit_error_per_point == pytest.approx(np.sqrt(sse) / 3, rel=1e-12)


class TestRankFrequency:
    def test_simple(self):
        seq = read_tokens("a b a")
        rank = rank_frequency(seq)
        assert list(enumerate(rank.frequencies.tolist(), start=1)) == [(1, 2), (2, 1)]

    def test_tie_break_by_first_occurrence(self):
        seq = read_tokens("b b a a c")
        rank = rank_frequency(seq)
        assert rank.frequencies.tolist() == [2, 2, 1]

    def test_read_only(self):
        rank = rank_frequency(TokenSequence(dense([2, 0, 1, 0, 2, 2])))
        assert rank.frequencies.tolist() == [3, 2, 1]
        assert not rank.frequencies.flags.writeable

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_m(self, ids):
        seq = TokenSequence(dense(ids))
        assert int(rank_frequency(seq).frequencies.sum()) == seq.m


class TestTypeTokenCurve:
    def test_first_sample(self):
        seq = read_tokens("a b c a")
        curve = type_token_curve(seq)
        assert (curve.sizes[0], curve.vocab[0]) == (1, 1)

    def test_final_sample(self):
        seq = read_tokens("a b a c b a")
        curve = type_token_curve(seq)
        assert (curve.sizes[-1], curve.vocab[-1]) == (6, 3)

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=400))
    @settings(max_examples=50, deadline=None)
    def test_final_equals_distinct_count(self, ids):
        seq = TokenSequence(dense(ids))
        curve = type_token_curve(seq)
        assert (curve.sizes[-1], curve.vocab[-1]) == (seq.m, len(set(ids)))


class TestTypeStats:
    def test_small_example(self):
        seq = read_tokens("b a b c a b")
        assert seq.k == 3
        assert seq.counts.tolist() == [3, 2, 1]

    def test_frozen(self):
        seq = TokenSequence(np.array([0, 1, 0, 2]))
        assert not seq.counts.flags.writeable
        with pytest.raises(FrozenInstanceError):
            seq.k = 4

    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=500),
        st.integers(0, 2**32 - 1),
        st.integers(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_sparse_ids_match_sorting_oracle(self, ids, seed, offset):
        # sparse labels, and the same labels shuffled, are refused unless
        # they happen to be dense ids in first-occurrence order; relabelled,
        # every per-type statistic matches its oracle
        tokens = np.array(ids, dtype=np.int64) ** 2 + offset
        shuffled = np.random.default_rng(seed).permutation(tokens)
        for labels in (tokens, shuffled):
            relabelled = dense(labels)
            if not np.array_equal(relabelled, labels):
                with pytest.raises(DataError, match="first-occurrence order"):
                    TokenSequence(labels)
            assert_matches_oracle(TokenSequence(relabelled))

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(model="simon", length=10**5, seed=3, alpha=0.2),
            ModelParams(model="pitman_yor", length=10**5, seed=3, a=0.68, b=0.8),
            ModelParams(model="conjunct", length=10**5, seed=3, a=0.68, b=0.8),
        ],
        ids=lambda p: p.model,
    )
    def test_incremental_models_match_sorting_oracle(self, params):
        seq = generate(params)
        assert_matches_oracle(seq)
        assert_matches_oracle(shuffle(seq, 4))

    @pytest.mark.parametrize("order", ["first occurrence", "permuted", "sparse"])
    def test_ids_in_any_order(self, order):
        # only ids in first-occurrence order are taken: permuted ids, and
        # sparse ids with gaps between them, are refused, and relabelling
        # either gives back the generated ids
        generated = generate(ModelParams(model="simon", length=5000, seed=6, alpha=0.3)).tokens
        tokens = generated
        if order == "permuted":
            tokens = np.random.default_rng(6).permutation(int(tokens.max()) + 1)[tokens]
        elif order == "sparse":
            tokens = tokens.astype(np.int64) * 3 + 1
        if order != "first occurrence":
            with pytest.raises(DataError, match="first-occurrence order"):
                TokenSequence(tokens)
        seq = TokenSequence(dense(tokens))
        assert np.array_equal(seq.tokens, generated)
        _, first = np.unique(seq.tokens, return_index=True)
        assert np.all(first[1:] > first[:-1])
        assert_matches_oracle(seq)
        assert np.all(np.diff(select_rare_set(seq)) > 0)

    def test_computed_once_per_analysis(self, monkeypatch):
        prop = TokenSequence.__dict__["counts"]
        calls = []

        def counted(seq):
            calls.append(seq)
            return counts_oracle(seq)

        monkeypatch.setattr(prop, "func", counted)
        seq = TokenSequence(dense(np.random.default_rng(8).integers(0, 40, size=20000)))
        analyze(seq, n=16)
        analyze(seq, n=8)
        assert calls == [seq]


class TestJudgeLrc:
    def test_all_positive(self):
        curve = AcfCurve(
            np.array([1, 2, 5, 20]), np.array([0.5, 0.4, 0.2, 0.1]), source_length=2000
        )
        verdict = judge_lrc(curve)
        assert verdict.holds
        assert bool(verdict)

    def test_negative_small_offset(self):
        curve = AcfCurve(
            np.array([1, 2, 5, 20]), np.array([0.5, -0.01, 0.2, 0.1]), source_length=2000
        )
        verdict = judge_lrc(curve)
        assert not verdict.holds
        assert "s=2" in verdict.reason
        assert verdict.offending == ((2, -0.01),)

    def test_failing_verdict_holds_python_numbers(self):
        # rare-word gaps alternating 1, 3: C(s) is -1 at every odd offset
        positions = np.cumsum(np.tile([1, 3], 1000))
        tokens = np.ones(int(positions[-1]) + 1, dtype=np.int64)
        tokens[positions] = 0
        tokens = dense(tokens)
        report = analyze(TokenSequence(tokens), rare=tokens[positions[:1]])
        assert report.lrc_verdict is False
        assert [s for s, _ in report.verdict.offending] == [1, 3, 5, 7, 9]
        for points in (report.verdict.offending, report.negative_small_s_points):
            assert all(type(s) is int and type(c) is float for s, c in points)
        assert json.loads(json.dumps(report.to_dict()))["negative_small_s_points"] == [
            [s, c] for s, c in report.verdict.offending
        ]

    def test_negative_large_offset_ignored(self):
        curve = AcfCurve(
            np.array([1, 2, 20]), np.array([0.5, 0.1, -0.3]), source_length=2000
        )
        assert judge_lrc(curve).holds

    def test_no_small_offsets(self):
        curve = AcfCurve(np.array([10, 20]), np.array([0.5, 0.1]), source_length=2000)
        with pytest.raises(DataError, match="curve lacks small offsets"):
            judge_lrc(curve)

    @given(
        st.lists(
            st.tuples(st.integers(1, 9), st.floats(-1.0, 1.0)),
            min_size=1,
            max_size=8,
            unique_by=lambda t: t[0],
        ),
        st.floats(0.001, 1.0),
    )
    @settings(max_examples=100)
    def test_monotone_in_positive_points(self, pts, extra_c):
        pts = sorted(pts)
        offsets = np.array([p[0] for p in pts])
        values = np.array([p[1] for p in pts])
        before = judge_lrc(AcfCurve(offsets, values, source_length=10**5))
        # append a positive point at an unused small offset
        free = [s for s in range(1, 10) if s not in set(offsets.tolist())]
        if not free:
            return
        merged = sorted(pts + [(free[0], extra_c)])
        after = judge_lrc(
            AcfCurve(
                np.array([p[0] for p in merged]),
                np.array([p[1] for p in merged]),
                source_length=10**5,
            )
        )
        if before.holds:
            assert after.holds


class TestAnalyze:
    def test_short_input_with_forced_rare_set(self):
        seq = read_tokens(ROMEO)
        romeo = seq.symbols.index("romeo")
        report = analyze(seq, n=16, rare={romeo})
        assert report.intervals.intervals.tolist() == [1, 4]
        assert report.m == 7
        assert report.m_n == 2
        assert report.n is None
        assert report.to_dict()["n"] is None
        assert report.gamma is None
        assert report.lrc_verdict is None
        assert report.acf_skipped is not None

    def test_one_rare_occurrence(self):
        # a chosen rare set that occurs once is skipped; a rarity divisor
        # below 2 and a forced set that occurs once are errors
        seq = read_tokens("a b " * 11 + "c a")
        report = analyze(seq, n=16)
        assert (report.intervals, report.acf_skipped) == (None, "insufficient occurrences")
        with pytest.raises(DataError, match="rarity divisor"):
            analyze(seq, n=1)
        with pytest.raises(DataError, match="insufficient occurrences"):
            analyze(seq, rare={seq.symbols.index("c")})

    def test_degenerate_constant_sequence(self):
        seq = TokenSequence(np.zeros(5000, dtype=np.int64))
        with pytest.raises(DataError, match="degenerate series"):
            analyze(seq, n=16)

    def test_negative_small_offsets_come_from_the_verdict(self):
        # Rare-word gaps alternate 1, 9: the ACF is -1 at every odd offset.
        positions = np.cumsum(np.tile([1, 9], 1500))
        tokens = np.arange(positions[-1] + 1) % 7 + 1
        tokens[positions] = 0
        tokens = dense(tokens)
        report = analyze(TokenSequence(tokens), rare={int(tokens[positions[0]])})
        assert not report.lrc_verdict
        assert report.negative_small_s_points == list(report.verdict.offending)
        assert [s for s, _ in report.negative_small_s_points] == [1, 3, 5, 7, 9]
        assert report.to_dict()["negative_small_s_points"] == [[s, c] for s, c in report.verdict.offending]

    def test_report_dict_fields(self):
        rng = np.random.default_rng(23)
        seq = TokenSequence(dense(rng.integers(0, 40, size=20000)))
        report = analyze(seq, n=16)
        d = report.to_dict()
        for key in (
            "n",
            "m",
            "m_n",
            "gamma",
            "gamma_fit_error",
            "zipf_exponent",
            "heaps_exponent",
            "lrc_verdict",
            "negative_small_s_points",
        ):
            assert key in d
        assert d["n"] == 16
        assert d["m"] == 20000
