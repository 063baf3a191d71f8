"""Seeded generative processes over an unbounded symbol vocabulary.

The three incremental models are one process with two rules: every
element after the first is new, at a constant rate (Simon, "rich get
richer") or at the (a, b) rate (Pitman-Yor, conjunct), or else it reuses
an earlier one, by a uniform copy of an earlier position (Simon,
conjunct) or by the discounted copy of Pitman-Yor, type i with weight
counts[i] - a. One block loop runs all three, with the two rules as its
arguments. The innovation rule decides one block of steps at a time, and
the loop lists each block of positions once, with its bounds, the
vocabulary before it and its innovation offsets; the reuse rule is a plain
loop over that list that writes each block's ids in place. Besides the
ids, a generator holds only that list; Pitman-Yor keeps the ids of its
later occurrences in the front of the ids' own buffer. Three reference
generators round out the set: an i.i.d. sampler with an exact power-law
rank distribution, a first-order Markov resampler of a corpus, and a
word-level shuffler.

All randomness comes from numpy's PCG64 generator seeded explicitly, so a
(parameters, seed) pair reproduces the same sequence on any platform.
Every sequence starts from the same state: one type with one occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .seqcore import DataError, TokenSequence, _spans, id_dtype


@dataclass
class GeneratorState:
    """Evolving model state: t tokens emitted so far, counts[i] occurrences
    of type i, and `later`, the type of every occurrence that is not its
    type's first, in emission order.

    The discounted reuse weight counts[i] - a splits by occurrence: a
    type's first occurrence weighs 1 - a and each later one weighs 1, so
    a reuse picks a uniform type or a uniform entry of `later` (see
    `pitman_yor_next`). The shared starting point is one type with one
    occurrence (t = 1). `_discounted_reuse`, Pitman-Yor's reuse rule in
    the bulk block loop, builds the same list in the front of the ids.
    """

    t: int
    counts: list[int]
    later: list[int]

    @property
    def k(self) -> int:
        """Vocabulary size."""
        return len(self.counts)

    @classmethod
    def initial(cls) -> "GeneratorState":
        return cls.from_counts([1])

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


def _seeded_rng(seed: int) -> np.random.Generator:
    """The PCG64 generator of a seed, which must fit in 64 bits."""
    if not 0 <= seed < 2**64:
        raise DataError("parameter out of range: seed must fit in 64 bits")
    return np.random.default_rng(seed)


# The parameters each incremental model takes, in sweep-cell order.
MODEL_PARAMS = {"simon": ("alpha",), "pitman_yor": ("a", "b"), "conjunct": ("a", "b")}


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the three incremental models.

    `length` counts all emitted elements, including the seed element that
    every model starts from. `seed` feeds the PCG64 generator. The (a, b)
    models accept the degenerate a = b = 0 pair (innovation probability 0,
    so the sequence is constant); it is flagged in the metadata sidecar
    rather than rejected.
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
        _seeded_rng(self.seed)  # raises on a seed outside [0, 2**64)
        taken = MODEL_PARAMS[self.model]
        if "alpha" in taken and (self.alpha is None or not 0.0 < self.alpha < 1.0):
            raise DataError("parameter out of range: alpha must be in (0, 1)")
        if "a" in taken and (self.a is None or not 0.0 <= self.a < 1.0):
            raise DataError("parameter out of range: a must be in [0, 1)")
        if "b" in taken and (self.b is None or not 0.0 <= self.b < np.inf):
            raise DataError("parameter out of range: b must be finite and >= 0")
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
    """One draw: `simon_next` at the innovation rate eta = (a*K + b) / (t + b),
    so a fresh id with probability eta, otherwise uniform reuse."""
    if k is None:
        k = int(max(past)) + 1
    return simon_next(past, (a * k + b) / (len(past) + b), rng, k)


# ---------------------------------------------------------------------------
# Bulk generators: one block loop, `_generate_blocks`, over an innovation
# rule and a reuse rule. An innovation rule decides one block of steps; the
# (a, b) decisions, which depend on the vocabulary so far, are its fixed
# point. A reuse rule loops over the block list (lo, hi, k, fresh) and
# writes every block's ids in place.
# ---------------------------------------------------------------------------


def _require(params: ModelParams, model: str) -> None:
    if params.model != model:
        raise DataError(f"expected {model} params, got {params.model}")


def _constant(params: ModelParams) -> TokenSequence:
    """The one sequence of the (a, b) models at a = b = 0: the innovation
    rate (a*K + b) / (t + b) is 0 at every step, so every element is type 0
    whatever the draws, and none is made. The ids are zero-filled pages
    that are only read, so most of them never become resident."""
    return TokenSequence._adopt(np.zeros(params.length, dtype=id_dtype(params.length)))


def _eta_innovations(u: np.ndarray, lo: int, k: int, a: float, b: float) -> np.ndarray:
    """Sorted offsets in a block of step uniforms u, of steps lo, lo + 1,
    ..., at which the (a, b) rule innovates, after k types: step s emits
    element t = s + 1 and is new when u[s - lo] < (a*K + b) / (t + b), K
    being the vocabulary before it.

    K grows by at most one per step, so within the block no rate exceeds
    the one at k + block size; only the steps whose uniform falls below
    that bound are candidates. Floating-point rounding is monotonic, so the
    bound never drops a step the exact rule would take. The candidates'
    decisions are the one fixed point of: each is the rule at k plus the
    new candidates before it. Iterated from none before, round r has at
    least the first r right, so the rounds end at the sequential
    decisions, made with the scalar rule's float expressions.
    """
    tb = np.arange(lo + 1, lo + 1 + u.size) + b
    cand = np.flatnonzero(u < (a * (k + u.size) + b) / tb)
    x, tc = u[cand], tb[cand]
    before = np.zeros(cand.size, dtype=np.int64)
    while True:
        new = x < (a * (k + before) + b) / tc
        nxt = np.cumsum(new)
        nxt -= new
        if np.array_equal(nxt, before):
            return cand[new]
        before = nxt


def _finish_block(block: np.ndarray, copies: np.ndarray, src: np.ndarray, fresh: np.ndarray, k: int) -> int:
    """Complete a block of ids in place; returns the vocabulary after it.

    `block` already holds the id of every offset that copies an earlier
    block. The innovations, at the sorted offsets `fresh`, take the next
    ids k, k + 1, ...; each offset in `copies` copies the earlier offset
    `src` of the same block. Pointer doubling finds the end of each chain
    of such copies in a few rounds. Checks that every copy points back;
    `TokenSequence._adopt` checks that the ids follow first occurrence."""
    assert np.all(src < copies), "a copy must point at an earlier position"
    block[fresh] = np.arange(k, k + fresh.size, dtype=block.dtype)
    ptr = np.arange(block.size)
    ptr[copies] = end = src
    while True:
        hop = ptr[end]
        if np.array_equal(hop, end):
            break
        ptr[copies] = end = hop
    block[copies] = block[end]
    return k + fresh.size


def _generate_blocks(
    params: ModelParams,
    innovations: Callable[[np.ndarray, int, int], np.ndarray],
    reuse: Callable[[np.ndarray, list[tuple[int, int, int, np.ndarray]], np.random.Generator], None],
) -> TokenSequence:
    """The block loop of the incremental models. Element 0 is type 0; step
    s emits element s + 1, new or else a reuse. The m - 1 step uniforms are
    drawn first, a block at a time: `innovations(u, lo, k)` returns the
    sorted offsets in the block u of steps lo, lo + 1, ..., after k types,
    at which it innovates. Step block [lo, hi) emits element block
    [lo + 1, hi + 1), so each block's offsets are also those of its
    element block.

    The pass lists each element block once, as (lo, hi, k, fresh): its
    bounds, the k types before it, and its innovation offsets `fresh`, kept
    as int32 (a block holds 2**14 steps). `reuse(tokens, blocks, rng)`
    then writes the ids of every block in place, after tokens[0] = 0,
    drawing its reuse after all the step uniforms."""
    if params.degenerate:
        return _constant(params)
    m = params.length
    rng = _seeded_rng(params.seed)
    blocks, k = [], 1  # (lo, hi, k, fresh) of each element block; the types so far
    for lo, hi in _spans(0, m - 1):
        fresh = innovations(rng.random(hi - lo), lo, k).astype(np.int32)
        blocks.append((lo + 1, hi + 1, k, fresh))
        k += fresh.size
    tokens = np.empty(m, dtype=id_dtype(m))
    tokens[0] = 0
    reuse(tokens, blocks, rng)
    return TokenSequence._adopt(tokens)


def _uniform_reuse(tokens: np.ndarray, blocks: list[tuple[int, int, int, np.ndarray]], rng: np.random.Generator) -> None:
    """Simon's and conjunct's reuse: position t copies a uniformly random
    earlier position, rng.integers(0, t)."""
    for lo, hi, k, fresh in blocks:
        block = tokens[lo:hi]
        tgt = rng.integers(0, np.arange(lo, hi))
        tgt[fresh] = 0  # an innovation copies nothing
        # right for every copy of an earlier block; a target inside the
        # block is clipped, and its chain followed below
        np.take(tokens[:lo], tgt, out=block, mode="clip")
        copies = np.flatnonzero(tgt >= lo)
        _finish_block(block, copies, tgt[copies] - lo, fresh, k)


def _discounted_reuse(
    tokens: np.ndarray, blocks: list[tuple[int, int, int, np.ndarray]], rng: np.random.Generator, a: float
) -> None:
    """Pitman-Yor's reuse, of type i with weight counts[i] - a: position t
    draws x = u * (t - a*K) and, as `pitman_yor_next`, copies the first
    occurrence of type floor(x / (1 - a)) when x < K(1 - a), else the later
    occurrence number floor(x - K(1 - a)); a later occurrence inside the
    block is a copy to follow there.

    The ids of the n_later later occurrences before a block,
    `GeneratorState.later`, are tokens[:n_later], in the front of the ids'
    own buffer: a block is built in its place and its later occurrences are
    appended there, which never reaches past the block's end, as n_later
    never exceeds the block's end less one less the innovations before it.
    After the last block `_expand_later` expands the ids in place, so the
    ids are the only whole-length array."""
    n_later = 0
    for lo, hi, k, fresh in blocks:
        block = tokens[lo:hi]
        is_new = np.zeros(block.size, dtype=bool)
        is_new[fresh] = True
        # the vocabulary before each position
        kb = np.repeat(np.arange(k, k + fresh.size + 1), np.diff(np.concatenate(([0], fresh + 1, [block.size]))))
        t = np.arange(lo, hi)
        x = rng.random(block.size)
        x *= t - a * kb  # the reuse draw of each position
        first_w = kb * (1.0 - a)
        first = (x < first_w) | (t == kb)
        # a first-occurrence reuse takes its type's id; every other position
        # reads a later slot, clipped into range, and a root or a slot
        # inside the block then overwrites what it read
        at = np.flatnonzero(first)
        first_ids = np.minimum(x[at] / (1.0 - a), kb[at] - 1).astype(block.dtype)
        x -= first_w
        t -= kb + 1
        slot = np.minimum(x, t, out=x).astype(np.int64)
        np.take(tokens[:lo], slot, out=block, mode="clip")
        block[at] = first_ids
        repeats = np.flatnonzero(~is_new)  # offsets of the block's later occurrences
        inside = np.flatnonzero((slot >= n_later) & ~(first | is_new))
        _finish_block(block, inside, repeats[slot[inside] - n_later], fresh, k)
        tokens[n_later : n_later + repeats.size] = block[repeats]
        n_later += repeats.size
    _expand_later(tokens, blocks)


def _expand_later(tokens: np.ndarray, blocks: list[tuple[int, int, int, np.ndarray]]) -> None:
    """Turn ids whose front holds the id of every later occurrence, in
    order, into the whole sequence, in place: element 0 is type 0 and the
    i-th innovation is type i. The blocks go from the back: block
    (lo, hi, k, fresh) has i = k - 1 innovations before it and
    j = i + fresh.size before hi, and takes its later ids from
    tokens[lo - 1 - i : hi - 1 - j], which no block after it wrote, as
    that range ends at or before hi."""
    for lo, hi, k, fresh in reversed(blocks):
        i = k - 1
        j = i + fresh.size
        later = tokens[lo - 1 - i : hi - 1 - j].copy()  # the block may overlap it
        block = tokens[lo:hi]
        repeat = np.ones(block.size, dtype=bool)
        repeat[fresh] = False
        block[repeat] = later
        block[fresh] = np.arange(1 + i, 1 + j, dtype=block.dtype)
    tokens[0] = 0


def generate_simon(params: ModelParams) -> TokenSequence:
    """Constant-innovation model: at every step emit a new type with
    probability alpha, else repeat the token at a uniformly random past
    position."""
    _require(params, "simon")
    alpha = params.alpha
    return _generate_blocks(params, lambda u, lo, k: np.flatnonzero(u < alpha), _uniform_reuse)


def generate_pitman_yor(params: ModelParams) -> TokenSequence:
    """Two-parameter model: innovation probability (a*K + b) / (t + b) and
    reuse of type i with probability (counts[i] - a) / (t + b)."""
    _require(params, "pitman_yor")
    a, b = params.a, params.b
    return _generate_blocks(params, partial(_eta_innovations, a=a, b=b), partial(_discounted_reuse, a=a))


def generate_conjunct(params: ModelParams) -> TokenSequence:
    """Conjunct model: the (a, b) innovation rate eta = (a*K + b) / (t + b)
    combined with uniform reuse from the past sequence."""
    _require(params, "conjunct")
    return _generate_blocks(params, partial(_eta_innovations, a=params.a, b=params.b), _uniform_reuse)


def generate(params: ModelParams) -> TokenSequence:
    """Dispatch to the model named in the params."""
    if params.model == "simon":
        return generate_simon(params)
    if params.model == "pitman_yor":
        return generate_pitman_yor(params)
    return generate_conjunct(params)


def _relabel_first_occurrence(ids: np.ndarray) -> np.ndarray:
    """Map non-negative int labels to dense ids in first-occurrence order,
    in place. Returns, for each new id, the label it replaces.

    Each label's first position, the length for a label that is absent, is
    scattered one block at a time, as `id_dtype(m)`: no position exceeds
    the length."""
    m = ids.size
    dtype = id_dtype(m)
    first = np.full(int(ids.max()) + 1, m, dtype=dtype)
    # Operands of the array's own type: numpy 2.4 runs ufunc.at on int32
    # with an int64 arange on a slow path, 20-30 times as long
    for lo, hi in _spans(0, m):
        np.minimum.at(first, ids[lo:hi], np.arange(lo, hi, dtype=dtype))
    labels = np.flatnonzero(first < m)
    labels = labels[np.argsort(first[labels])]
    new_id = first  # the first positions are no longer needed
    new_id[labels] = np.arange(labels.size)
    for lo, hi in _spans(0, ids.size):
        ids[lo:hi] = new_id.take(ids[lo:hi])
    return labels


def _resampled(ids: np.ndarray, source: TokenSequence) -> TokenSequence:
    """A sequence drawn from `source`'s ids, relabelled in first-occurrence
    order; takes over `ids`, which it relabels in place. Each type keeps
    its surface form; without a symbol table that is its w<id> name in
    `source`, so a written token file is unchanged."""
    labels = _relabel_first_occurrence(ids)
    return TokenSequence._adopt(ids, symbols=tuple(map(source.surface, labels.tolist())))


def generate_zipf_iid(
    vocab_size: int, exponent: float, length: int, seed: int
) -> TokenSequence:
    """I.i.d. draws from p(u) proportional to u**-exponent over ranks
    u = 1..vocab_size, via binary search on the cumulative weight table.
    Ids are relabeled in first-occurrence order."""
    if vocab_size < 1 or not 0.0 < exponent < np.inf or length < 1:
        raise DataError("parameter out of range: exponent must be finite and > 0, vocab and length >= 1")
    rng = _seeded_rng(seed)
    cdf = np.arange(1, vocab_size + 1, dtype=np.float64)
    np.power(cdf, -exponent, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    # the ranks are below vocab_size, the relabelled ids below length
    ranks = np.empty(length, dtype=id_dtype(max(length, vocab_size)))
    for lo, hi in _spans(0, length):
        ranks[lo:hi] = np.searchsorted(cdf, rng.random(hi - lo), side="right")
    _relabel_first_occurrence(ranks)
    return TokenSequence._adopt(ranks.astype(id_dtype(length), copy=False))


# Steps in one lane of the bigram chain (`_BigramChain.run`). A lane
# started from a guessed state has this long to meet the true chain; one
# that does not leaves its successor to the scalar pass. On child-speech
# text 3 % of lanes have not met it after 512 steps, and none after 1024.
# On Simon alpha = 0.4 text, where chains seldom meet, the scalar pass
# takes 85 % of the steps at 2048 and 91 % at 1024; both ran as fast as a
# per-step loop there, and alike elsewhere.
_LANE = 1 << 11
# Uniforms the bigram chain draws and advances at once, a whole number of
# lanes. All lanes of a span take each step in one numpy call, so a span
# must hold many lanes to spread the cost of the call: 512 lanes, 8 MB of
# draws, where every other block-wise pass takes 2**14 positions.
_SPAN = 1 << 20


def _sorted_by(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values[np.argsort(keys, kind="stable")] for non-negative int keys.

    One stable argsort of uint16 digits per 16 bits of the largest key,
    least significant first; numpy sorts 16-bit keys by radix. Each later
    pass reorders the values and the keys before it sorts, so no two int64
    orders are held at once."""
    top = int(keys.max())
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        values, keys = values.take(order), keys.take(order)
        del order
        order = np.argsort((keys >> shift).astype(np.uint16), kind="stable")
        shift += 16
    return values.take(order)


class _BigramChain:
    """The bigram resampler's transition. From state s under uniform x the
    next state is succ[start[s] + int(x * width[s])], where succ holds the
    successors of each type in corpus order, type by type. A restart state
    has no successor: the virtual first state n_types, or a type that only
    closes the corpus. Its width is the corpus length and its start is
    succ.size, so its draw reads the corpus ids at int(x * m_c) instead."""

    def __init__(self, corpus: TokenSequence) -> None:
        ids = corpus.tokens
        self.ids = ids
        self.succ = _sorted_by(ids[:-1], ids[1:])
        self.n_types = corpus.k
        # every occurrence of a type but the corpus's last token has a
        # successor; the ids' type holds every start and width
        self.width = np.zeros(self.n_types + 1, dtype=ids.dtype)
        self.width[:-1] = corpus.counts
        self.width[ids[-1]] -= 1
        self.start = np.cumsum(self.width, dtype=ids.dtype)
        self.start -= self.width
        restart = self.width == 0
        self.start[restart] = self.succ.size
        self.width[restart] = ids.size
        self._lists = None  # start and width as lists, once a lane needs walking

    def step(self, cur: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The next state of each state in `cur`, under the uniform in `x`."""
        j = (x * self.width.take(cur)).astype(np.intp)
        j += self.start.take(cur)
        nxt = self.succ.take(j, mode="clip")
        if j.max() >= self.succ.size:
            hit = np.flatnonzero(j >= self.succ.size)
            nxt[hit] = self.ids.take(j[hit] - self.succ.size)
        return nxt

    def walk(self, cur: int, xs: np.ndarray, row: np.ndarray) -> None:
        """Rewrite the lane `row` as the chain from state `cur` under the
        uniforms `xs`, one scalar step at a time, in chunks of doubling
        size. Stops after the first chunk that ends on the stored state:
        the two chains met inside it, so the rest of the lane holds."""
        if self._lists is None:
            self._lists = self.start.tolist(), self.width.tolist()
        start, width = self._lists
        succ, ids, last = memoryview(self.succ), memoryview(self.ids), self.succ.size
        lo, size = 0, 16
        while lo < xs.size:
            new = []
            append = new.append
            for x in memoryview(xs[lo:lo + size]):
                j = start[cur] + int(x * width[cur])
                try:
                    cur = succ[j]
                except IndexError:  # a restart state
                    cur = ids[j - last]
                append(cur)
            part = row[lo:lo + size]
            met = part[-1] == cur
            part[:] = new
            if met:
                return
            lo += size
            size *= 2

    def run(self, u: np.ndarray, state: int, out: np.ndarray) -> None:
        """Fill `out` with the chain after `state` under the uniforms `u`;
        both hold a whole number of lanes of _LANE steps, lane i at
        [i * _LANE, (i + 1) * _LANE).

        Invariant: inside every lane, out[t] is the step from out[t - 1]
        and u[t]. Each pass keeps it, and it is what lets a rerun stop at
        the first step whose new state equals the stored one: the steps
        are deterministic, so from there on the lane already holds.

        1. All lanes advance together, lane 0 from the true state, every
           other from a guess, the restart state n_types.
        2. Every later lane reruns from its predecessor's round-1 end, and
           leaves the pass once it meets its stored states.
        3. A scalar pass, left to right, reruns each lane whose start
           still differs from its predecessor's final end, with the same
           early stop. Lane 0 is right from round 1, so each lane is right
           once its predecessor is.

        Where chains seldom meet, the scalar pass does almost every step,
        and the cost is that of a per-step loop plus two vector passes."""
        lanes = u.size // _LANE
        if lanes == 1:  # nothing to guess: walk the one lane
            out.fill(-1)  # a state the walk never meets
            self.walk(state, u, out)
            return
        grid = out.reshape(lanes, _LANE)
        draws = u.reshape(lanes, _LANE)
        cur = np.full(lanes, self.n_types)
        cur[0] = state
        for t in range(_LANE):
            cur = grid[:, t] = self.step(cur, draws[:, t])
        ends = grid[:, -1].copy()
        live = np.arange(_LANE, u.size, _LANE)
        cur = ends[:-1]
        for t in range(_LANE):
            at = live + t
            cur = self.step(cur, u.take(at))
            if not t & (t + 1):  # at steps 1, 2, 4, 8, ...: drop the lanes that met
                moved = cur != out.take(at)
                out[at] = cur
                live, cur = live[moved], cur[moved]
                if not live.size:
                    break
            else:
                out[at] = cur
        for i in range(1, lanes):
            if grid[i - 1, -1] != ends[i - 1]:
                self.walk(int(grid[i - 1, -1]), draws[i], grid[i])


def generate_bigram(corpus: TokenSequence, length: int, seed: int) -> TokenSequence:
    """First-order Markov resample of a corpus: the first token comes from
    the unigram distribution, each next token from the empirical successor
    distribution of the current type. A type with no recorded successor
    (it only closes the corpus) restarts from the unigram draw. Ids are
    relabelled in first-occurrence order; each type keeps its surface.

    Every step reads one entry of the successor table (`_BigramChain`)
    at a position given by the current type and one uniform. The uniforms
    are drawn in spans of _SPAN, the same stream as rng.random(length),
    and each span is cut into lanes that run as numpy vectors
    (`_BigramChain.run`), so the output is that of the per-step chain,
    byte for byte. The last span is padded to a whole lane."""
    if corpus.m < 2:
        raise DataError("corpus too short for bigrams")
    if length < 1:
        raise DataError("parameter out of range: length must be >= 1")
    rng = _seeded_rng(seed)
    chain = _BigramChain(corpus)
    padded = -(-length // _LANE) * _LANE
    out = np.empty(padded, dtype=id_dtype(length))
    u = np.empty(min(_SPAN, padded))
    state = chain.n_types
    for lo in range(0, length, _SPAN):
        n = min(_SPAN, length - lo)
        span = -(-n // _LANE) * _LANE
        rng.random(out=u[:n])
        u[n:span] = 0.0
        chain.run(u[:span], state, out[lo:lo + span])
        state = int(out[lo + n - 1])
    del chain, u  # the table and the draws go before the relabelling
    return _resampled(out[:length], corpus)


def shuffle(seq: TokenSequence, seed: int) -> TokenSequence:
    """Uniform random permutation of the tokens (Fisher-Yates, PCG64), with
    ids relabelled in first-occurrence order."""
    return _resampled(_seeded_rng(seed).permutation(seq.tokens), seq)

