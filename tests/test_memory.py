"""Peak traced memory per token of the corpus path's whole-sequence stages.

Both stages keep token ids in flat buffers and hold Python strings for one
block of text at a time. Measured at 2e5 tokens (CPython 3.11, numpy 2.4):
read_tokens 29 and generate_bigram 37 bytes a token, against 93 and 119
while each held a Python list with one object per token."""

import tracemalloc

import pytest

from lrclab.corpusio import read_tokens
from lrclab.genmodels import ModelParams, generate, generate_bigram

TOKENS = 200_000


def peak_bytes_per_token(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / TOKENS, result


@pytest.fixture(scope="module")
def text():
    seq = generate(ModelParams(model="simon", length=TOKENS, seed=3, alpha=0.1))
    return "\n".join(f"Word{t}" for t in seq.tokens.tolist()) + "\n"


def test_read_tokens(text):
    per_token, seq = peak_bytes_per_token(lambda: read_tokens(text))
    assert seq.m == TOKENS
    assert per_token < 45


def test_generate_bigram(text):
    corpus = read_tokens(text)
    per_token, seq = peak_bytes_per_token(lambda: generate_bigram(corpus, TOKENS, 5))
    assert seq.m == TOKENS
    assert per_token < 60
