"""Peak traced memory per token of the whole-sequence stages.

The corpus path keeps token ids in flat buffers and holds one block of
text at a time; its ids come from 8-byte keys and one hash table, with no
Python string but one per type. The generators draw their random numbers
a block at a time, write each block of ids as soon as its draws are in,
keep no whole-length array but the ids and each block's innovation
offsets (Pitman-Yor keeps its later-occurrence ids in the front of the
ids' buffer), and hand their ids to TokenSequence without a copy. Every id
array is int32 below 2**31 tokens. Measured at 2e5 tokens (CPython 3.11,
numpy 2.4), in bytes a token, with the bound each test asserts:

    read_tokens 26.0, bound 45: at this length each block's temporaries
        set the peak (13.5 at 2e6 tokens of 2e5 types)
    generate_bigram 16.9, bound 18: it holds a span of up to 2**20
        uniforms, 8 bytes a token at this length
    generate: Simon alpha 0.1 8.4, Simon alpha 0.4 8.7, conjunct
        (0.68, 0.8) 8.3 and conjunct (0.9, 0), seed 1, 8.3, bound 9.4,
        each block's innovation offsets held as int32 (9.8 for (0.9, 0)
        when the (a, b) steps were 8-byte machine ints, 15.2 when they
        were Python ints); Pitman-Yor (0.68, 0.8) and (0, 0.8) 11.7 and
        (0.9, 0), seed 1, 11.5, bound 12.5, the ids and its block
        temporaries (5.6 at 1e6; 13.0 for (0.9, 0) with 8-byte steps;
        15.7 when its later-occurrence ids were a second whole-length
        array);
        Pitman-Yor and conjunct (0, 0) 4.4, bound 4.5, the ids and the
        block of running maxima that checks their order, as they draw no
        random numbers
    shuffle 15.2 and generate_zipf_iid, 50000 ranks, 11.4, bound 17
    counts: Simon alpha 0.1 0.76 and Pitman-Yor (0.68, 0.8) 0.41, bound
        1.0, with the scatter run block by block; Simon alpha 0.4 1.95,
        bound 2.3, as its 0.4 M types fill the one int32 count array
    rank_frequency, after counts: Simon alpha 0.4 2.0, bound 2.3, with
        a copy of the frequencies at the ids' width sorted in place,
        handed over uncopied and checked for order without a difference
        array (3.6 for an int64 copy)
    type_token_curve: 0.03 at most, bound 0.1: V(m) is the largest id of
        the prefix plus 1, read off the ids with no per-type array
    select_rare_set, after counts: Simon alpha 0.1 0.81, Pitman-Yor
        (0.68, 0.8) 0.99 and Simon alpha 0.4 1.41, bound 1.7, with the
        frequency histogram clipped at the largest frequency at or below
        the target, scattered block by block and turned into token counts
        in place; the types of the last level taken are its first in id
        order, marked a block of types at a time, so no index array of the
        whole level is made (2.0 for the hapaxes of Simon alpha 0.4, when
        it was)
    extract_intervals, after counts, of the rare set select_rare_set
        picks: Simon alpha 0.1 1.49, Pitman-Yor and conjunct (0.68, 0.8)
        1.40, bound 1.65: the rare positions, counted from `counts`, are
        written straight into their int64 array a block of ids at a time,
        so the array, turned into the gaps in place, and one block's
        temporaries are the peak (1.75-1.84 with an m-byte mask of the
        rare tokens)
    TokenSequence of the ids [0, 10**7], refused: 1.9 kilobytes in all,
        bound 8 kilobytes: the id order is checked before any per-type
        array, sized by the largest id, is made
    select_rare_set, extract_intervals and acf_curve, after counts, of
        an all-rare series, Pitman-Yor and conjunct (0, 0), which raise
        "degenerate series": 0.03, a few kilobytes, bound 0.1: every gap
        is 1, so the gaps are a broadcast of 1 and no whole-length array
        is made; the constant series is rejected before a float copy of
        it is made

parse_chat is bounded per transcript character, on a transcript of the
same words, 8 to an utterance: 1.75, bound 2.0. Each block, cut before a
tier line, is classified over its bytes and cleaned at once, so besides
the document only one block's temporaries are held.

read_token_file and parse_chat_file are bounded per byte of the file they
read, the two texts above written to disk: 3.77, bound 4.0, and 2.11,
bound 2.3. They read 2**18 characters at a time and hold as text only the
chunks up to the next cut, one or two here, and one block, so the peak
does not grow with the file; at this size each block's temporaries set
most of it."""

import tracemalloc

import numpy as np
import pytest

from lrclab.corpusio import parse_chat, parse_chat_file, read_token_file, read_tokens
from lrclab.genmodels import ModelParams, generate, generate_bigram, generate_zipf_iid, shuffle
from lrclab.lrcstats import acf_curve, extract_intervals, rank_frequency, select_rare_set, type_token_curve
from lrclab.seqcore import DataError, TokenSequence

TOKENS = 200_000
# Bytes a token. Each bound is the figure above plus the margin noted.
GENERATOR_BOUND = 17  # shuffle and zipf: 15.2 at most, margin 1.8
PITMAN_YOR_BOUND = 12.5  # Pitman-Yor: 11.7 at most, margin 0.8
UNIFORM_COPY_BOUND = 9.4  # Simon and conjunct: 8.7 at most, margin 0.7
CONSTANT_BOUND = 4.5  # the (a, b) models at (0, 0), the int32 ids alone: 4.0, margin 0.5
BIGRAM_BOUND = 18  # generate_bigram: 16.9, margin 1.1
TYPE_STATS_BOUND = 1.0  # counts, where the types are a small share: 0.76 at most, margin 0.24
SELECT_RARE_SET_BOUND = 1.7  # bytes a token: 1.41 at most, margin 0.29
MANY_TYPES_BOUND = 2.3  # bytes a token, counts of Simon alpha 0.4: 1.95, margin 0.35
RANK_FREQUENCY_BOUND = 2.3  # bytes a token, rank_frequency of Simon alpha 0.4: 2.0, margin 0.3
TYPE_TOKEN_BOUND = 0.1  # bytes a token, type_token_curve: 0.03 at most, margin 0.07
REFUSED_IDS_BOUND = 8192  # bytes in all, TokenSequence of [0, 10**7]: 1944, margin 6248
INTERVALS_BOUND = 0.1  # bytes a token, where every token is rare: 0.03, margin 0.07
RARE_INTERVALS_BOUND = 1.65  # bytes a token, a selected rare set: 1.49 at most, margin 0.16
PARSE_CHAT_BOUND = 2.0  # bytes a transcript character: 1.75, margin 0.25
# Bytes a file byte, where the text readers would first hold the whole text
READ_TOKEN_FILE_BOUND = 4.0  # 3.77, margin 0.23
PARSE_CHAT_FILE_BOUND = 2.3  # 2.11, margin 0.19


def peak_bytes_per_token(fn, per=TOKENS):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / per, result


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


@pytest.fixture(scope="module")
def transcript(simon):
    """The Simon sequence's words as a CHAT transcript: 8 words to an
    utterance, laid out as a tier line and a continuation with an
    annotation, each utterance followed by a dependent tier."""
    words = [f"Word{t}" for t in simon.tokens.tolist()]
    lines = ["@Begin"]
    for i in range(0, TOKENS, 8):
        lines += (
            f"*{('CHI', 'MOT')[i // 8 % 2]}:\t" + " ".join(words[i : i + 5]),
            "\t" + " ".join(words[i + 5 : i + 8]) + " [?] .",
            "%mor:\t" + " ".join(words[i : i + 3]),
        )
    return "\n".join(lines) + "\n"


def test_parse_chat(transcript):
    per_char, doc = peak_bytes_per_token(lambda: parse_chat(transcript), per=len(transcript))
    assert len(doc.codes) == TOKENS // 8
    assert per_char <= PARSE_CHAT_BOUND


@pytest.fixture(scope="module")
def files(tmp_path_factory, text, transcript):
    work = tmp_path_factory.mktemp("memory")
    (work / "tokens.txt").write_text(text, encoding="utf-8")
    (work / "transcript.cha").write_text(transcript, encoding="utf-8")
    return work


@pytest.mark.parametrize("reader,name,bound", [
    (read_token_file, "tokens.txt", READ_TOKEN_FILE_BOUND),
    (parse_chat_file, "transcript.cha", PARSE_CHAT_FILE_BOUND),
])
def test_file_readers(files, reader, name, bound):
    path = files / name
    per_byte, _ = peak_bytes_per_token(lambda: reader(path), per=path.stat().st_size)
    assert per_byte <= bound


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
    # many innovations: seed 1 makes 58,512 types, near the mean of about
    # 61,000; at b = 0 a run may keep few types for long, as seed 4 does (4048)
    ("conjunct", {"a": 0.9, "b": 0.0, "seed": 1}),
    ("pitman_yor", {"a": 0.9, "b": 0.0, "seed": 1}),
])
def test_generate(simon, model, params):
    p = ModelParams(model=model, length=TOKENS, **{"seed": 4, **params})
    per_token, seq = peak_bytes_per_token(lambda: generate(p))
    assert seq.m == TOKENS
    assert per_token <= (PITMAN_YOR_BOUND if model == "pitman_yor" else UNIFORM_COPY_BOUND)


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
    per_token, counts = peak_bytes_per_token(lambda: seq.counts)
    assert int(counts.sum()) == TOKENS
    assert per_token <= TYPE_STATS_BOUND
    per_token, curve = peak_bytes_per_token(lambda: type_token_curve(seq))
    assert int(curve.vocab[-1]) == counts.size
    assert per_token <= TYPE_TOKEN_BOUND


def test_many_types():
    # Simon alpha 0.4 makes a new type at 0.4 of its positions, so its
    # per-type arrays are about as long as the sequence
    seq = generate(ModelParams(model="simon", length=TOKENS, seed=4, alpha=0.4))
    per_token, counts = peak_bytes_per_token(lambda: seq.counts)
    assert int(counts.sum()) == TOKENS
    assert per_token <= MANY_TYPES_BOUND
    per_token, rank = peak_bytes_per_token(lambda: rank_frequency(seq))
    assert int(rank.frequencies.sum()) == TOKENS
    assert per_token <= RANK_FREQUENCY_BOUND
    per_token, curve = peak_bytes_per_token(lambda: type_token_curve(seq))
    assert int(curve.vocab[-1]) == rank.frequencies.size
    assert per_token <= TYPE_TOKEN_BOUND


@pytest.mark.parametrize("model,params", [
    ("simon", {"alpha": 0.1}),
    ("pitman_yor", {"a": 0.68, "b": 0.8}),
    ("simon", {"alpha": 0.4}),
])
def test_select_rare_set(model, params):
    seq = generate(ModelParams(model=model, length=TOKENS, seed=4, **params))
    seq.counts  # cached, so only the selection is traced
    per_token, rare = peak_bytes_per_token(lambda: select_rare_set(seq))
    assert per_token <= SELECT_RARE_SET_BOUND
    assert int(seq.counts[rare].sum()) >= TOKENS // 16


@pytest.mark.parametrize("model,params", [
    ("simon", {"alpha": 0.1}),
    ("pitman_yor", {"a": 0.68, "b": 0.8}),
    ("conjunct", {"a": 0.68, "b": 0.8}),
])
def test_extract_intervals(model, params):
    # the rarest sixteenth of the tokens: no mask of the whole length
    seq = generate(ModelParams(model=model, length=TOKENS, seed=4, **params))
    seq.counts  # cached, as analyze has it before the interval stages
    rare = select_rare_set(seq)
    per_token, ints = peak_bytes_per_token(lambda: extract_intervals(seq, rare))
    assert ints.m_n + 1 == int(seq.counts[rare].sum())
    assert per_token <= RARE_INTERVALS_BOUND


@pytest.mark.parametrize("model", ["pitman_yor", "conjunct"])
def test_all_rare_intervals_and_curve(model):
    # (0, 0) repeats one type, which is then the whole rare set: the gap
    # series is as long as the sequence, and constant
    seq = generate(ModelParams(model=model, length=TOKENS, seed=4, a=0.0, b=0.0))
    seq.counts  # cached, as analyze has it before the interval stages

    def stages():
        with pytest.raises(DataError, match="degenerate series"):
            acf_curve(extract_intervals(seq, select_rare_set(seq)))

    per_token, _ = peak_bytes_per_token(stages)
    assert per_token <= INTERVALS_BOUND


def test_refused_ids():
    # ids far apart: refused before a per-type array sized by the largest is made
    def refused():
        with pytest.raises(DataError, match="first-occurrence order"):
            TokenSequence(np.array([0, 10**7]))

    peak, _ = peak_bytes_per_token(refused, per=1)
    assert peak <= REFUSED_IDS_BOUND
