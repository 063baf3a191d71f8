"""Seeded generative processes over an unbounded symbol vocabulary.

Three incremental models share one copy-pointer mechanism: every element
after the first is either new or a copy of an earlier position. The
constant-innovation / uniform-reuse model ("rich get richer") and the
conjunct model copy a uniformly random earlier position and differ only
in their innovation rule (a constant rate, or the (a, b) rate); the
two-parameter (a, b) model reuses type i with weight counts[i] - a,
which it draws as a copy of a first or a later occurrence. Three
reference generators round out the set: an i.i.d. sampler with an exact
power-law rank distribution, a first-order Markov resampler of a corpus,
and a word-level shuffler.

All randomness comes from numpy's PCG64 generator seeded explicitly, so a
(parameters, seed) pair reproduces the same sequence on any platform.
Every sequence starts from the same state: one type with one occurrence.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .seqcore import DataError, TokenSequence

_BLOCK = 1 << 12  # steps screened together for (a, b) innovations


@dataclass
class GeneratorState:
    """Evolving model state: t tokens emitted so far, counts[i] occurrences
    of type i, and `later`, the type of every occurrence that is not its
    type's first, in emission order.

    The discounted reuse weight counts[i] - a splits by occurrence: a
    type's first occurrence weighs 1 - a and each later one weighs 1, so
    a reuse picks a uniform type or a uniform entry of `later` (see
    `pitman_yor_next`). The shared starting point is one type with one
    occurrence (t = 1).
    """

    t: int
    counts: list[int]
    later: list[int]

    @property
    def k(self) -> int:
        """Vocabulary size."""
        return len(self.counts)

    @classmethod
    def initial(cls, discount: float | None = None) -> "GeneratorState":
        return cls.from_counts([1], discount=discount)

    @classmethod
    def from_counts(
        cls, counts: Sequence[int], discount: float | None = None
    ) -> "GeneratorState":
        """State with the given per-type counts; `later` lists each type's
        repeat occurrences type by type. `discount` is accepted for
        compatibility and unused: the split weights need no per-type index."""
        counts = [int(c) for c in counts]
        if not counts or any(c < 1 for c in counts):
            raise DataError("counts must be positive")
        later = [i for i, c in enumerate(counts) for _ in range(c - 1)]
        return cls(t=sum(counts), counts=counts, later=later)

    def apply(self, token_id: int) -> None:
        """Record an emission: either an existing type or the next fresh id."""
        if token_id == self.k:
            self.counts.append(1)
        elif 0 <= token_id < self.k:
            self.counts[token_id] += 1
            self.later.append(token_id)
        else:
            raise DataError("token id out of range")
        self.t += 1

    def check(self) -> None:
        assert sum(self.counts) == self.t, "per-type counts must sum to t"
        assert len(self.later) == self.t - self.k, "one later entry per repeat"


# The parameters each incremental model takes, in sweep-cell order.
MODEL_PARAMS = {"simon": ("alpha",), "pitman_yor": ("a", "b"), "conjunct": ("a", "b")}


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the three incremental models.

    `length` counts all emitted elements, including the seed element that
    every model starts from. `seed` feeds the PCG64 generator. The (a, b)
    models accept the degenerate a = b = 0 pair (innovation probability 0,
    so the sequence is constant); it is flagged in run metadata rather than
    rejected.
    """

    model: str
    length: int
    seed: int
    alpha: float | None = None
    a: float | None = None
    b: float | None = None

    def __post_init__(self) -> None:
        if self.model not in MODEL_PARAMS:
            raise DataError(f"unknown model '{self.model}'")
        if self.length < 1:
            raise DataError("parameter out of range: length must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise DataError("parameter out of range: seed must fit in 64 bits")
        taken = MODEL_PARAMS[self.model]
        if "alpha" in taken and (self.alpha is None or not 0.0 < self.alpha < 1.0):
            raise DataError("parameter out of range: alpha must be in (0, 1)")
        if "a" in taken and (self.a is None or not 0.0 <= self.a < 1.0):
            raise DataError("parameter out of range: a must be in [0, 1)")
        if "b" in taken and (self.b is None or self.b < 0.0):
            raise DataError("parameter out of range: b must be >= 0")
        for name in ("alpha", "a", "b"):
            if name not in taken and getattr(self, name) is not None:
                raise DataError(f"{self.model} takes {', '.join(taken)}, not {name}")

    @property
    def degenerate(self) -> bool:
        return self.a == 0.0 and self.b == 0.0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in MODEL_PARAMS[self.model]}


# ---------------------------------------------------------------------------
# Single-step kernels. These spell out one draw from each model's
# next-token distribution given an explicit state. Fed the uniforms a bulk
# generator drew for a step, each returns the token that generator emits.
# ---------------------------------------------------------------------------


def simon_next(past: Sequence[int], alpha: float, rng: np.random.Generator, k: int | None = None) -> int:
    """One draw: a fresh id with probability alpha, otherwise the id at a
    uniformly random past position (equivalent to a frequency-proportional
    type draw). Ids in `past` must be dense 0..k-1."""
    if k is None:
        k = int(max(past)) + 1
    if rng.random() < alpha:
        return k
    return int(past[int(rng.integers(0, len(past)))])


def pitman_yor_next(state: GeneratorState, a: float, b: float, rng: np.random.Generator) -> int:
    """One draw: a fresh id with probability (a*K + b) / (t + b), otherwise
    type i with probability (counts[i] - a) / (t + b). The reuse weight
    t - a*K splits into K first-occurrence slots of weight 1 - a, one per
    type, and t - K later-occurrence slots of weight 1, one per entry of
    `state.later`; x = u * (t - a*K) picks the slot."""
    t, k = state.t, state.k
    if rng.random() < (a * k + b) / (t + b):
        return k
    x = rng.random() * (t - a * k)
    first_w = k * (1.0 - a)
    if x < first_w or t == k:
        return min(int(x / (1.0 - a)), k - 1)
    return state.later[min(int(x - first_w), t - k - 1)]


def conjunct_next(past: Sequence[int], a: float, b: float, rng: np.random.Generator, k: int | None = None) -> int:
    """One draw: a fresh id with probability eta = (a*K + b) / (t + b),
    otherwise uniform reuse from the past sequence."""
    if k is None:
        k = int(max(past)) + 1
    t = len(past)
    eta = (a * k + b) / (t + b)
    if rng.random() < eta:
        return k
    return int(past[int(rng.integers(0, t))])


# ---------------------------------------------------------------------------
# Bulk generators. Each builds a copy-pointer forest over the positions
# (a new element points at itself, a reused one at the earlier position it
# copies) and resolves it in numpy; only the (a, b) innovation decisions,
# which depend on the vocabulary so far, run as a scalar loop.
# ---------------------------------------------------------------------------


def _require(params: ModelParams, model: str) -> None:
    if params.model != model:
        raise DataError(f"expected {model} params, got {params.model}")


def _eta_innovations(u: np.ndarray, a: float, b: float) -> np.ndarray:
    """Steps at which the (a, b) rule innovates: step s emits element
    t = s + 1 and is new when u[s] < (a*K + b) / (t + b), K being the
    vocabulary before it.

    K grows by at most one per step, so within a block of steps no rate
    exceeds the one at K + block size; the scalar loop visits only the
    steps whose uniform falls below that bound. Floating-point rounding is
    monotonic, so the bound never drops a step the exact rule would take.
    """
    steps = []
    k = 1
    num = a * k + b
    for lo in range(0, u.size, _BLOCK):
        block = u[lo : lo + _BLOCK]
        tb = np.arange(lo + 1, lo + 1 + block.size) + b
        cand = np.flatnonzero(block < (a * (k + block.size) + b) / tb)
        for t, x in zip((cand + lo + 1).tolist(), block[cand].tolist()):
            if x < num / (t + b):
                steps.append(t - 1)
                k += 1
                num = a * k + b
    return np.array(steps, dtype=np.int64)


def _resolve(parent: np.ndarray) -> TokenSequence:
    """Token ids of a copy-pointer forest; overwrites `parent`.

    parent[p] is the earlier position that position p copies; position 0
    and every innovation point at themselves. Pointer doubling finds every
    root in O(log depth) rounds. A root's id is its rank among the roots,
    so ids are dense and in first-occurrence order; both properties are
    checked on the result."""
    positions = np.arange(parent.size)
    is_root = parent == positions
    assert np.all(parent <= positions), "a copy must point at an earlier position"
    del positions
    hop = np.empty_like(parent)
    while True:
        np.take(parent, parent, out=hop)
        if np.array_equal(hop, parent):
            break
        parent, hop = hop, parent
    del hop
    issued = np.cumsum(is_root) - 1  # highest id issued up to each position
    tokens = issued[parent]
    assert np.array_equal(np.maximum.accumulate(tokens), issued), "ids must follow first occurrence"
    return TokenSequence(tokens)


def _generate_uniform_copy(
    params: ModelParams, innovations: Callable[[np.ndarray], np.ndarray]
) -> TokenSequence:
    """Each element after the first is new at the steps `innovations`
    returns for the step uniforms u, else a copy of a uniformly random
    earlier position."""
    m = params.length
    rng = np.random.default_rng(params.seed)
    new = innovations(rng.random(m - 1)) + 1
    parent = np.empty(m, dtype=np.int64)
    parent[0] = 0
    parent[1:] = rng.integers(0, np.arange(1, m))
    parent[new] = new
    return _resolve(parent)


def generate_simon(params: ModelParams) -> TokenSequence:
    """Constant-innovation model: at every step emit a new type with
    probability alpha, else repeat the token at a uniformly random past
    position."""
    _require(params, "simon")
    alpha = params.alpha
    return _generate_uniform_copy(params, lambda u: np.flatnonzero(u < alpha))


def generate_pitman_yor(params: ModelParams) -> TokenSequence:
    """Two-parameter model: innovation probability (a*K + b) / (t + b) and
    reuse of type i with probability (counts[i] - a) / (t + b). A reuse
    draw x = u * (t - a*K) copies the first occurrence of type
    floor(x / (1 - a)) when x < K(1 - a), else the later (not first)
    occurrence number floor(x - K(1 - a)) in position order, as in
    `pitman_yor_next`."""
    _require(params, "pitman_yor")
    a, b = params.a, params.b
    m = params.length
    rng = np.random.default_rng(params.seed)
    new = _eta_innovations(rng.random(m - 1), a, b) + 1
    u = rng.random(m - 1)
    is_root = np.zeros(m, dtype=bool)
    is_root[0] = True
    is_root[new] = True
    roots = np.flatnonzero(is_root)
    later = np.flatnonzero(~is_root)
    k = np.cumsum(is_root[:-1])  # vocabulary before each step
    t = np.arange(1, m)
    x = u * (t - a * k)
    del u, is_root
    first_w = k * (1.0 - a)
    first = (x < first_w) | (t == k)
    rest = ~first
    parent = np.empty(m, dtype=np.int64)
    parent[0] = 0
    tail = parent[1:]
    tail[first] = roots[np.minimum(x[first] / (1.0 - a), k[first] - 1).astype(np.int64)]
    tail[rest] = later[np.minimum(x[rest] - first_w[rest], (t - k - 1)[rest]).astype(np.int64)]
    # free the split's whole-length temporaries before _resolve allocates
    del tail, x, first_w, first, rest, k, t, later
    parent[roots] = roots
    return _resolve(parent)


def generate_conjunct(params: ModelParams) -> TokenSequence:
    """Conjunct model: the (a, b) innovation rate eta = (a*K + b) / (t + b)
    combined with uniform reuse from the past sequence."""
    _require(params, "conjunct")
    a, b = params.a, params.b
    return _generate_uniform_copy(params, lambda u: _eta_innovations(u, a, b))


def generate(params: ModelParams) -> TokenSequence:
    """Dispatch to the model named in the params."""
    if params.model == "simon":
        return generate_simon(params)
    if params.model == "pitman_yor":
        return generate_pitman_yor(params)
    return generate_conjunct(params)


def _relabel_first_occurrence(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map non-negative int labels to dense ids in first-occurrence order.
    Returns the new ids and, for each new id, the label it replaces."""
    labels, _, first = TokenSequence(ids).type_stats
    labels = labels[np.argsort(first)]
    new_id = np.empty(int(labels.max()) + 1, dtype=np.int64)
    new_id[labels] = np.arange(labels.size)
    return new_id[ids], labels


def _resampled(ids: np.ndarray, source: TokenSequence) -> TokenSequence:
    """A sequence drawn from `source`'s ids, relabelled in first-occurrence
    order. Each type keeps its surface form; without a symbol table that is
    its w<id> name in `source`, so a written token file is unchanged."""
    new_ids, labels = _relabel_first_occurrence(ids)
    return TokenSequence(new_ids, symbols=tuple(map(source.surface, labels.tolist())))


def generate_zipf_iid(
    vocab_size: int, exponent: float, length: int, seed: int
) -> TokenSequence:
    """I.i.d. draws from p(u) proportional to u**-exponent over ranks
    u = 1..vocab_size, via binary search on the cumulative weight table.
    Ids are relabeled in first-occurrence order."""
    if vocab_size < 1 or exponent <= 0.0 or length < 1:
        raise DataError("parameter out of range")
    rng = np.random.default_rng(seed)
    weights = np.arange(1, vocab_size + 1, dtype=np.float64) ** (-exponent)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(length), side="right")
    return TokenSequence(_relabel_first_occurrence(ranks)[0])


def generate_bigram(corpus: TokenSequence, length: int, seed: int) -> TokenSequence:
    """First-order Markov resample of a corpus: the first token comes from
    the unigram distribution, each next token from the empirical successor
    distribution of the current type. A type with no recorded successor
    (it only closes the corpus) restarts from the unigram draw. Ids are
    relabelled in first-occurrence order; each type keeps its surface.

    Every draw reads table[start[cur] + int(u * width[cur])]: the table
    holds each type's successors in corpus order, then the whole corpus,
    which serves the first draw (from a virtual state past the last type)
    and every restart."""
    if corpus.m < 2:
        raise DataError("corpus too short for bigrams")
    if length < 1:
        raise DataError("parameter out of range")
    rng = np.random.default_rng(seed)
    ids = corpus.tokens
    m_c = corpus.m
    heads = ids[:-1]
    table = memoryview(np.concatenate((ids[1:][np.argsort(heads, kind="stable")], ids)))
    n_types = int(ids.max()) + 1
    width = np.bincount(heads, minlength=n_types + 1)
    start = np.concatenate(([0], np.cumsum(width[:-1])))
    restart = width == 0
    start[restart] = m_c - 1
    width[restart] = m_c
    start, width = start.tolist(), width.tolist()

    u = rng.random(length)
    out = array("q")
    append = out.append
    cur = n_types
    for x in memoryview(u):
        cur = table[start[cur] + int(x * width[cur])]
        append(cur)
    del table, u
    return _resampled(np.frombuffer(out, dtype=np.int64), corpus)


def shuffle(seq: TokenSequence, seed: int) -> TokenSequence:
    """Uniform random permutation of the tokens (Fisher-Yates, PCG64), with
    ids relabelled in first-occurrence order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(seq.m)
    return _resampled(seq.tokens[perm], seq)


def file_metadata(model: str, params: dict, seed: int, seq: TokenSequence) -> dict:
    """Metadata written next to a generated or shuffled token file."""
    return {
        "model": model,
        "params": params,
        "seed": seed,
        "length": seq.m,
        "final_vocab": int(seq.type_stats[0].size),
    }


def run_metadata(params: ModelParams, seq: TokenSequence) -> dict:
    """Metadata mirror of one generation run."""
    meta = file_metadata(params.model, params.to_dict(), params.seed, seq)
    if params.degenerate:
        meta["degenerate"] = True
    return meta
