"""Peak traced memory per token of the whole-sequence stages.

The corpus path keeps token ids in flat buffers and holds one block of
text at a time; its ids come from 8-byte keys and one hash table, with no
Python string but one per type. The generators draw their random numbers
a block at a time, write each block of ids as soon as its draws are in,
keep no whole-length array but the ids, the innovation positions and
Pitman-Yor's later-occurrence ids, and hand their ids to TokenSequence
without a copy. Every id array is int32 below 2**31 tokens. Measured at
2e5 tokens (CPython 3.11, numpy 2.4), in bytes a token, with the figure
before these changes in parentheses:

    read_tokens 26.0 (93 while it held one Python object per token, then
        28.8 with int64 ids, then 25.0 through sequence_from_surface's
        dict: the keys and the table weigh less than the dict and its
        strings, but at this length each block's temporaries set the
        peak; 13.5 at 2e6, against 18.3)
    generate_bigram 18.0 (119 with one object per token, then 37, then
        29.8 with an int64 successor table and id buffer)
    generate: Simon alpha 0.1 9.0 (43, then 16.4, then 13.3 with int64
        ids), Simon alpha 0.4 11.1 (37, 16.4, 15.5), conjunct (0.68, 0.8)
        8.4 (42, 16.4, 12.7), Pitman-Yor (0.68, 0.8) and (0, 0.8) 15.8
        (74, then 18.2, then 20.1 with int64 ids: its block temporaries
        set the peak; 9.7 at 1e6, against 13.6); Pitman-Yor and conjunct
        (0, 0) 4.0, the ids alone, as they draw no random numbers (20.1
        and 12.7 while they drew them, 8.0 with int64 ids)
    shuffle 15.2 (39, then 19.2 with int64 ids)
    generate_zipf_iid, 50000 ranks, 13.5 (32, then 17.5 with int64 ids)
    type_stats: Simon alpha 0.1 2.6 (9.6, then 4.0), Pitman-Yor (0.68,
        0.8) 1.2 (8.2), with the per-type scatters run block by block;
        Simon alpha 0.4 9.6 (16), as its 0.4 M types fill the three output
        arrays, which are now the per-label arrays themselves, uncopied
    rank_frequency, after type_stats: Simon alpha 0.4 3.6 (10.0), alpha
        0.1 0.9 (2.5), with the sorted frequencies handed over uncopied and
        checked for order without an int64 difference array
    select_rare_set, after type_stats: Simon alpha 0.1 0.9 (9.8, then
        1.7), Pitman-Yor (0.68, 0.8) 1.0 (7.7, then 1.5), with the
        frequency histogram clipped at the largest frequency at or below
        the target and turned into token counts in place, and the ids kept
        in an array, not a set
    select_rare_set, extract_intervals and acf_curve, after type_stats, of
        an all-rare series, Pitman-Yor and conjunct (0, 0), which raise
        "degenerate series": 0.02, a few kilobytes (40, then 24, then 9.0
        with the bool gather and the rare positions, then 1.5 with
        select_rare_set's histogram of M / 16 levels, two levels now):
        every gap is 1, so the gaps are a broadcast of 1 and no
        whole-length array is made; the constant series is rejected
        before a float copy of it is made"""

import tracemalloc

import numpy as np
import pytest

from lrclab.corpusio import read_tokens
from lrclab.genmodels import ModelParams, generate, generate_bigram, generate_zipf_iid, shuffle
from lrclab.lrcstats import acf_curve, extract_intervals, rank_frequency, select_rare_set
from lrclab.seqcore import DataError

TOKENS = 200_000
# Bytes a token. Each bound is the figure above plus the margin noted.
GENERATOR_BOUND = 17  # Pitman-Yor, shuffle and zipf: 15.8 at most, margin 1.2
UNIFORM_COPY_BOUND = 12  # Simon and conjunct: 11.1 at most, margin 0.9
CONSTANT_BOUND = 4.5  # the (a, b) models at (0, 0), the int32 ids alone: 4.0, margin 0.5
BIGRAM_BOUND = 20  # generate_bigram: 18.0, margin 2
TYPE_STATS_BOUND = 6  # bytes a token, where the types are a small share
MANY_TYPES_BOUND = 11  # bytes a token, type_stats of Simon alpha 0.4
RANK_FREQUENCY_BOUND = 5  # bytes a token, rank_frequency of Simon alpha 0.4
INTERVALS_BOUND = 0.1  # bytes a token, where every token is rare: 0.02, margin 0.08


def peak_bytes_per_token(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / TOKENS, result


@pytest.fixture(scope="module")
def simon():
    return generate(ModelParams(model="simon", length=TOKENS, seed=3, alpha=0.1))


@pytest.fixture(scope="module")
def text(simon):
    return "\n".join(f"Word{t}" for t in simon.tokens.tolist()) + "\n"


def test_read_tokens(text):
    per_token, seq = peak_bytes_per_token(lambda: read_tokens(text))
    assert seq.m == TOKENS
    assert per_token < 45


def test_generate_bigram(text):
    corpus = read_tokens(text)
    per_token, seq = peak_bytes_per_token(lambda: generate_bigram(corpus, TOKENS, 5))
    assert seq.m == TOKENS
    assert per_token <= BIGRAM_BOUND


@pytest.mark.parametrize("model,params", [
    ("simon", {"alpha": 0.1}),
    ("simon", {"alpha": 0.4}),
    ("conjunct", {"a": 0.68, "b": 0.8}),
    ("pitman_yor", {"a": 0.68, "b": 0.8}),
    ("pitman_yor", {"a": 0.0, "b": 0.8}),
])
def test_generate(simon, model, params):
    p = ModelParams(model=model, length=TOKENS, seed=4, **params)
    per_token, seq = peak_bytes_per_token(lambda: generate(p))
    assert seq.m == TOKENS
    assert per_token <= (GENERATOR_BOUND if model == "pitman_yor" else UNIFORM_COPY_BOUND)


@pytest.mark.parametrize("model", ["pitman_yor", "conjunct"])
def test_generate_constant(model):
    # at a = b = 0 every element is type 0, so no random number is drawn
    p = ModelParams(model=model, length=TOKENS, seed=4, a=0.0, b=0.0)
    per_token, seq = peak_bytes_per_token(lambda: generate(p))
    assert seq.m == TOKENS and not seq.tokens.any()
    assert per_token <= CONSTANT_BOUND


def test_shuffle(simon):
    per_token, seq = peak_bytes_per_token(lambda: shuffle(simon, 5))
    assert seq.m == TOKENS
    assert per_token <= GENERATOR_BOUND


def test_generate_zipf_iid(simon):
    per_token, seq = peak_bytes_per_token(lambda: generate_zipf_iid(50_000, 1.0, TOKENS, 5))
    assert seq.m == TOKENS
    assert per_token <= GENERATOR_BOUND


@pytest.mark.parametrize("model,params", [
    ("simon", {"alpha": 0.1}),
    ("pitman_yor", {"a": 0.68, "b": 0.8}),
])
def test_type_stats(model, params):
    # a generated sequence's tokens are read-only, like every TokenSequence's
    seq = generate(ModelParams(model=model, length=TOKENS, seed=4, **params))
    per_token, (_, freqs, _) = peak_bytes_per_token(lambda: seq.type_stats)
    assert int(freqs.sum()) == TOKENS
    assert per_token <= TYPE_STATS_BOUND


def test_many_types():
    # Simon alpha 0.4 makes a new type at 0.4 of its positions, so its
    # per-type arrays are about as long as the sequence
    seq = generate(ModelParams(model="simon", length=TOKENS, seed=4, alpha=0.4))
    per_token, (_, freqs, _) = peak_bytes_per_token(lambda: seq.type_stats)
    assert int(freqs.sum()) == TOKENS
    assert per_token <= MANY_TYPES_BOUND
    per_token, rank = peak_bytes_per_token(lambda: rank_frequency(seq))
    assert int(rank.frequencies.sum()) == TOKENS
    assert per_token <= RANK_FREQUENCY_BOUND


@pytest.mark.parametrize("model,params", [
    ("simon", {"alpha": 0.1}),
    ("pitman_yor", {"a": 0.68, "b": 0.8}),
])
def test_select_rare_set(model, params):
    seq = generate(ModelParams(model=model, length=TOKENS, seed=4, **params))
    ids, freqs, _ = seq.type_stats  # cached, so only the selection is traced
    per_token, rare = peak_bytes_per_token(lambda: select_rare_set(seq))
    assert per_token <= TYPE_STATS_BOUND
    assert int(freqs[np.isin(ids, rare)].sum()) >= TOKENS // 16


@pytest.mark.parametrize("model", ["pitman_yor", "conjunct"])
def test_all_rare_intervals_and_curve(model):
    # (0, 0) repeats one type, which is then the whole rare set: the gap
    # series is as long as the sequence, and constant
    seq = generate(ModelParams(model=model, length=TOKENS, seed=4, a=0.0, b=0.0))
    seq.type_stats  # cached, as analyze has it before the interval stages

    def stages():
        with pytest.raises(DataError, match="degenerate series"):
            acf_curve(extract_intervals(seq, select_rare_set(seq)))

    per_token, _ = peak_bytes_per_token(stages)
    assert per_token <= INTERVALS_BOUND
