import hashlib
import json
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from lrclab import cli, genmodels
from lrclab.genmodels import (
    _eta_innovations,
    _finish_block,
    _relabel_first_occurrence,
    _resampled,
    GeneratorState,
    ModelParams,
    conjunct_next,
    generate,
    generate_bigram,
    generate_conjunct,
    generate_pitman_yor,
    generate_simon,
    generate_zipf_iid,
    pitman_yor_next,
    shuffle,
    simon_next,
)
from lrclab.lrcstats import rank_frequency
from lrclab.seqcore import DataError, TokenSequence, id_dtype

from dense_labels import dense

REPLAYS = 30_000


class TestGeneratorState:
    def test_initial(self):
        state = GeneratorState.initial()
        assert state.t == 1
        assert state.k == 1
        assert state.counts == [1]

    def test_apply_keeps_invariant(self):
        state = GeneratorState.initial()
        for tok in [1, 0, 1, 2, 2, 2]:
            state.apply(tok)
            state.check()
        assert state.t == 7
        assert state.counts == [2, 2, 3]
        assert state.later == [0, 1, 2, 2]
        # first-occurrence slots (1 - a each) plus later slots (1 each)
        # hold the whole discounted reuse weight t - a*K
        a = 0.5
        split = state.k * (1 - a) + len(state.later)
        assert split == pytest.approx(sum(c - a for c in state.counts))
        assert split == pytest.approx(state.t - a * state.k)

    def test_from_counts_lists_repeats(self):
        state = GeneratorState.from_counts([3, 1, 2])
        assert state.later == [0, 0, 2]
        state.check()

    def test_apply_rejects_gap(self):
        state = GeneratorState.initial()
        with pytest.raises(DataError):
            state.apply(5)


def _generated_metadata(tmp_path, *argv):
    """The metadata sidecar that `lrclab generate` writes for argv."""
    out = tmp_path / "seq.txt"
    assert cli.main(["generate", *argv, "--out", str(out)]) == 0
    return json.loads((tmp_path / "seq.txt.meta.json").read_text())


class TestModelParams:
    def test_simon_alpha_range(self):
        with pytest.raises(DataError, match="parameter out of range"):
            ModelParams(model="simon", length=10, seed=0, alpha=1.0)

    def test_pitman_yor_ranges(self):
        with pytest.raises(DataError, match="parameter out of range"):
            ModelParams(model="pitman_yor", length=10, seed=0, a=1.0, b=0.5)
        with pytest.raises(DataError, match="parameter out of range"):
            ModelParams(model="pitman_yor", length=10, seed=0, a=0.5, b=-0.1)

    @pytest.mark.parametrize("model, params", [
        ("simon", dict(alpha=0.1, b=0.5)),
        ("conjunct", dict(a=0.5, b=0.5, alpha=0.1)),
    ])
    def test_unused_parameter_rejected(self, model, params):
        with pytest.raises(DataError, match=f"{model} takes"):
            ModelParams(model=model, length=10, seed=0, **params)

    @pytest.mark.parametrize("model", ["pitman_yor", "conjunct"])
    @pytest.mark.parametrize("b", [float("nan"), float("inf")])
    def test_non_finite_b(self, model, b):
        with pytest.raises(DataError, match="parameter out of range: b"):
            ModelParams(model=model, length=10, seed=0, a=0.5, b=b)

    def test_model_name(self):
        with pytest.raises(DataError, match="unknown model"):
            ModelParams(model="markov", length=10, seed=0)

    def test_degenerate_flag(self, tmp_path):
        p = ModelParams(model="conjunct", length=10, seed=0, a=0.0, b=0.0)
        assert p.degenerate
        meta = _generated_metadata(tmp_path, "--model", "conjunct", "--a", "0", "--b", "0",
                                   "--length", "10", "--seed", "0")
        assert meta["degenerate"] is True
        assert meta["final_vocab"] == 1


def _replay_distribution(draw, k):
    """Empirical next-token counts over categories 0..k-1 plus `new` (= k)."""
    outcomes = np.zeros(k + 1, dtype=np.int64)
    for _ in range(REPLAYS):
        outcomes[draw()] += 1
    return outcomes


class TestKernels:
    def test_simon_reuse_probabilities(self):
        # past [x, y, x, z, x, z]: reuse probabilities 3/6, 1/6, 2/6
        past = [0, 1, 0, 2, 0, 2]
        alpha = 0.3
        rng = np.random.default_rng(2)
        counts = _replay_distribution(lambda: simon_next(past, alpha, rng), 3)
        expected = REPLAYS * np.array(
            [alpha * 0 + (1 - alpha) * 3 / 6, (1 - alpha) / 6, (1 - alpha) * 2 / 6, alpha]
        )
        assert chisquare(counts, f_exp=expected).pvalue > 0.001

    def test_pitman_yor_kernel(self):
        a, b = 0.5, 0.5
        state = GeneratorState.from_counts([3, 1, 2], discount=a)
        rng = np.random.default_rng(3)
        counts = _replay_distribution(lambda: pitman_yor_next(state, a, b, rng), 3)
        t, k = 6, 3
        expected = REPLAYS * np.array(
            [
                (3 - a) / (t + b),
                (1 - a) / (t + b),
                (2 - a) / (t + b),
                (a * k + b) / (t + b),
            ]
        )
        assert chisquare(counts, f_exp=expected).pvalue > 0.001

    def test_conjunct_kernel(self):
        a, b = 0.68, 0.8
        past = [0, 1, 0, 2, 0, 2]
        rng = np.random.default_rng(4)
        counts = _replay_distribution(lambda: conjunct_next(past, a, b, rng), 3)
        t, k = 6, 3
        eta = (a * k + b) / (t + b)
        expected = REPLAYS * np.array(
            [(1 - eta) * 3 / 6, (1 - eta) / 6, (1 - eta) * 2 / 6, eta]
        )
        assert chisquare(counts, f_exp=expected).pvalue > 0.001

    def test_probabilities_sum_to_one(self):
        for t, k, counts in [(6, 3, [3, 1, 2]), (100, 7, [94, 1, 1, 1, 1, 1, 1])]:
            alpha = 0.25
            total = alpha + (1 - alpha) * sum(counts) / t
            assert total == pytest.approx(1.0, abs=1e-12)
            for a, b in [(0.5, 0.5), (0.68, 0.8), (0.0, 1.0)]:
                new_p = (a * k + b) / (t + b)
                reuse = sum((c - a) / (t + b) for c in counts)
                assert new_p + reuse == pytest.approx(1.0, abs=1e-12)


class _Replay:
    """Stands in for the random generator inside a kernel: hands out the
    uniforms and the past position a bulk generator drew for one step."""

    def __init__(self, uniforms, position=None):
        self._uniforms = list(uniforms)
        self._position = position

    def random(self):
        return self._uniforms.pop(0)

    def integers(self, low, high):
        assert low == 0 and 0 <= self._position < high
        return self._position


DIFF_LENGTHS = (1, 7, 2000)
DIFF_SEEDS = range(5)
AB_CELLS = [(0.0, 0.0), (0.0, 0.8), (0.68, 0.0), (0.68, 0.8)]


def _innovation_steps(u, a, b):
    """The (a, b) rule one step at a time: the oracle of the block-wise screen."""
    k, steps = 1, []
    for s, x in enumerate(u.tolist()):
        if x < (a * k + b) / (s + 1 + b):
            steps.append(s)
            k += 1
    return steps


def _rule_steps(rule, blocks):
    """The steps a one-block innovation rule takes over consecutive blocks, lo and k carried."""
    steps, lo = [], 0
    for u in blocks:
        steps += (rule(u, lo, 1 + len(steps)) + lo).tolist()
        lo += u.size
    return steps


def _replay_uniform_copy(kernel, params):
    """Tokens from feeding a kernel the draws of a Simon or conjunct run:
    one step uniform each, then one past position each."""
    m = params.length
    rng = np.random.default_rng(params.seed)
    u = rng.random(m - 1).tolist()
    pos = rng.integers(0, np.arange(1, m)).tolist()
    past, k = [0], 1
    for s in range(m - 1):
        past.append(kernel(past, _Replay([u[s]], pos[s]), k))
        k = max(k, past[-1] + 1)
    return past


def _replay_pitman_yor(params):
    """Tokens from feeding pitman_yor_next the draws of a bulk run: all
    innovation uniforms, then all reuse uniforms."""
    m, a, b = params.length, params.a, params.b
    rng = np.random.default_rng(params.seed)
    u_new = rng.random(m - 1).tolist()
    u_pick = rng.random(m - 1).tolist()
    state = GeneratorState.initial()
    replayed = [0]
    for s in range(m - 1):
        tok = pitman_yor_next(state, a, b, _Replay([u_new[s], u_pick[s]]))
        state.apply(tok)
        replayed.append(tok)
    return replayed


class TestBulkMatchesKernels:
    """The bulk generators emit, step for step, what the single-step
    kernels return for the same uniforms."""

    @pytest.mark.parametrize("length", DIFF_LENGTHS)
    @pytest.mark.parametrize("alpha", [0.1, 0.4])
    def test_simon(self, length, alpha):
        for seed in DIFF_SEEDS:
            p = ModelParams(model="simon", length=length, seed=seed, alpha=alpha)
            replayed = _replay_uniform_copy(
                lambda past, rng, k: simon_next(past, alpha, rng, k=k), p
            )
            assert generate_simon(p).tokens.tolist() == replayed

    @pytest.mark.parametrize("length", DIFF_LENGTHS)
    @pytest.mark.parametrize("a,b", AB_CELLS)
    def test_conjunct(self, length, a, b):
        for seed in DIFF_SEEDS:
            p = ModelParams(model="conjunct", length=length, seed=seed, a=a, b=b)
            replayed = _replay_uniform_copy(
                lambda past, rng, k: conjunct_next(past, a, b, rng, k=k), p
            )
            assert generate_conjunct(p).tokens.tolist() == replayed

    @pytest.mark.parametrize("length", DIFF_LENGTHS)
    @pytest.mark.parametrize("a,b", AB_CELLS)
    def test_pitman_yor(self, length, a, b):
        for seed in DIFF_SEEDS:
            p = ModelParams(model="pitman_yor", length=length, seed=seed, a=a, b=b)
            assert generate_pitman_yor(p).tokens.tolist() == _replay_pitman_yor(p)

    @pytest.mark.parametrize("model,params", [
        ("simon", {"alpha": 0.1}),
        ("conjunct", {"a": 0.68, "b": 0.8}),
        ("pitman_yor", {"a": 0.68, "b": 0.8}),
        ("pitman_yor", {"a": 0.0, "b": 0.8}),
        ("conjunct", {"a": 0.0, "b": 0.0}),
        ("conjunct", {"a": 0.68, "b": 0.0}),
        ("pitman_yor", {"a": 0.0, "b": 0.0}),
        ("pitman_yor", {"a": 0.68, "b": 0.0}),
        ("pitman_yor", {"a": 0.5, "b": 1e12}),
        ("conjunct", {"a": 0.5, "b": 1e12}),
    ])
    def test_across_draw_blocks(self, model, params):
        # 70000 elements cross the edges of the bulk generators' draw
        # blocks, which the short lengths above never reach. At b = 1e12
        # nearly every step innovates: whole blocks copy nothing, and
        # Pitman-Yor's gathers find few or no later ids before the block
        p = ModelParams(model=model, length=70_000, seed=11, **params)
        if model == "pitman_yor":
            replayed = _replay_pitman_yor(p)
        else:
            kernel = simon_next if model == "simon" else conjunct_next
            replayed = _replay_uniform_copy(lambda past, rng, k: kernel(past, *p.to_dict().values(), rng, k=k), p)
        assert generate(p).tokens.tolist() == replayed

    def test_innovation_screen_matches_scalar_rule(self):
        # uneven screening blocks, including rates near one
        u = np.random.default_rng(14).random(3 * 10**4)
        blocks = np.split(u, [7, 7 + 19993])
        for a, b in AB_CELLS + [(0.99, 5.0), (0.3, 100.0)]:
            assert _rule_steps(partial(_eta_innovations, a=a, b=b), blocks) == _innovation_steps(u, a, b)

    @pytest.mark.parametrize("a,b", [(0.68, 0.8), (0.9, 0.0), (0.99, 0.0), (0.3, 1e4), (0.5, 1e12), (0.0, 0.8)])
    def test_innovation_fixed_point_matches_scalar_rule(self, a, b):
        # the generators' blocks of 2**14 step uniforms, at lengths that end
        # inside the first block, one short of its edge, just past it and
        # after several
        for seed in (0, 1, 2):
            for m in (2, 2**14, 2**14 + 2, 10**5):
                u = np.random.default_rng(seed).random(m - 1)
                blocks = np.split(u, range(2**14, u.size, 2**14))
                assert _rule_steps(partial(_eta_innovations, a=a, b=b), blocks) == _innovation_steps(u, a, b)

    def test_simon_rule_is_the_constant_rate(self, monkeypatch):
        # the rule generate_simon hands the block loop, over uneven blocks
        # and the generators' blocks of 2**14
        rules = []
        monkeypatch.setattr(genmodels, "_generate_blocks", lambda params, innovations, reuse: rules.append(innovations))
        generate_simon(ModelParams(model="simon", length=10, seed=0, alpha=0.3))
        u = np.random.default_rng(14).random(5 * 10**4)
        for blocks in (np.split(u, [7, 7 + 19993]), np.split(u, range(2**14, u.size, 2**14))):
            assert _rule_steps(rules[0], blocks) == np.flatnonzero(u < 0.3).tolist()

    def test_block_list(self, monkeypatch):
        # what the block loop hands a reuse rule: every element block once,
        # as (lo, hi, k, fresh), over three blocks, the last of four steps
        seen = []

        def recording(rule):
            def stand_in(tokens, blocks, rng, **kw):
                seen.append(blocks)
                rule(tokens, blocks, rng, **kw)

            return stand_in

        for name in ("_uniform_reuse", "_discounted_reuse"):
            monkeypatch.setattr(genmodels, name, recording(getattr(genmodels, name)))
        m, sizes = 2**15 + 5, []
        for p in (
            ModelParams(model="simon", length=m, seed=1, alpha=0.01),
            ModelParams(model="conjunct", length=m, seed=1, a=0.68, b=0.8),
            ModelParams(model="pitman_yor", length=m, seed=1, a=0.9, b=0.0),
        ):
            seq = generate(p)
            blocks = seen.pop()
            assert len(blocks) == 3
            k = 1
            for b, (lo, hi, k_before, fresh) in enumerate(blocks):
                assert (lo, hi) == (1 + b * 2**14, min(1 + (b + 1) * 2**14, m))
                assert k_before == k
                assert fresh.dtype == np.int32
                assert np.all(np.diff(fresh) > 0) and np.all((0 <= fresh) & (fresh < hi - lo))
                k += fresh.size
                sizes.append(fresh.size)
            assert k == seq.k
        assert not seen and 0 in sizes

    def test_deep_chains_in_first_block(self):
        # at alpha 0.01 nearly every element of the first block copies
        # another inside it, so chains there run deeper than one doubling
        # round resolves
        p = ModelParams(model="simon", length=2**14 + 5, seed=3, alpha=0.01)
        rng = np.random.default_rng(p.seed)
        new = rng.random(p.length - 1) < p.alpha
        pos = rng.integers(0, np.arange(1, p.length)).tolist()
        depth = [0]
        for s in range(2**14 - 1):
            depth.append(0 if new[s] or pos[s] == 0 else depth[pos[s]] + 1)
        assert max(depth) > 2
        replayed = _replay_uniform_copy(lambda past, rng, k: simon_next(past, p.alpha, rng, k=k), p)
        assert generate_simon(p).tokens.tolist() == replayed

    def test_finish_block_rejects_forward_pointer(self):
        block = np.zeros(4, dtype=np.int64)
        with pytest.raises(AssertionError, match="earlier position"):
            _finish_block(block, np.array([1, 3]), np.array([2, 1]), np.array([], dtype=np.int64), 1)

    def test_finish_block_chains(self):
        # offsets 1, 3 and 5 are innovations; 2 -> 1, 4 -> 2 -> 1 and
        # 6 -> 4 -> 2 -> 1 copy inside the block, 0 and 7 an earlier block
        for dtype in (np.int32, np.int64):
            block = np.array([0, -1, -1, -1, -1, -1, -1, 1], dtype=np.int64)
            copies, src = np.array([2, 4, 6]), np.array([1, 2, 4], dtype=dtype)
            assert _finish_block(block, copies, src, np.array([1, 3, 5]), 1) == 4
            assert block.tolist() == [0, 1, 1, 2, 1, 3, 1, 1]

    def test_unissued_id_refused_on_adoption(self):
        # _finish_block leaves an id it did not issue; the sequence that
        # adopts the ids refuses it
        block = np.array([0, 5], dtype=id_dtype(2))
        none = np.array([], dtype=np.int64)
        assert _finish_block(block, none, none, none, 1) == 1
        with pytest.raises(DataError, match="first-occurrence order"):
            TokenSequence._adopt(block)

    @staticmethod
    def _widths_agree(monkeypatch, cells):
        # every id of a generator written as int64, as from 2**31 tokens on
        narrow = [generate(p).tokens for p in cells]
        monkeypatch.setattr(genmodels, "id_dtype", lambda m: np.int64)
        monkeypatch.setattr(TokenSequence, "_dtype", staticmethod(lambda n: np.int64))
        for p, tokens in zip(cells, narrow):
            wide = generate(p).tokens
            assert (tokens.dtype, wide.dtype) == (np.int32, np.int64)
            assert np.array_equal(wide, tokens)

    def test_later_id_widths_agree(self, monkeypatch):
        cells = [ModelParams(model="pitman_yor", length=40_000, seed=2, a=a, b=b) for a, b in AB_CELLS]
        self._widths_agree(monkeypatch, cells)

    def test_uniform_copy_id_widths_agree(self, monkeypatch):
        cells = [ModelParams(model="simon", length=40_000, seed=2, alpha=alpha) for alpha in (0.1, 0.4)]
        cells += [ModelParams(model="conjunct", length=40_000, seed=2, a=a, b=b) for a, b in AB_CELLS]
        self._widths_agree(monkeypatch, cells)

    def test_zipf_ranks_wider_than_ids(self, monkeypatch):
        # ranks run up to the vocabulary, which may exceed the length: with
        # a rule that narrows to int8 below 100, 300 ranks must not wrap
        want = generate_zipf_iid(300, 0.5, 50, 3).tokens
        rule = lambda m: np.int8 if m < 100 else np.int64  # noqa: E731
        monkeypatch.setattr(genmodels, "id_dtype", rule)
        monkeypatch.setattr(TokenSequence, "_dtype", staticmethod(lambda ids: rule(ids.size)))
        got = generate_zipf_iid(300, 0.5, 50, 3).tokens
        assert got.dtype == np.int8 and np.array_equal(got, want)

    def test_pointer_dtype_rule(self):
        # the rule is applied at 2**31 without allocating that many elements
        assert id_dtype(0) is np.int32
        assert id_dtype(1) is np.int32
        assert id_dtype(2**31 - 1) is np.int32
        assert id_dtype(2**31) is np.int64
        assert id_dtype(2**40) is np.int64


PINNED_LENGTHS = (1, 2, 17, 2**14, 2**14 + 1, 2**14 + 2, 70_000)
PINNED_SEEDS = (0, 1)
# sha256 over the int64 bytes of the tokens of every (length, seed) pair
# above, in order: the ids are pinned, not the width they are stored in
PINNED_DIGESTS = [
    ("simon", {"alpha": 0.1}, "eabce82ff21bcdfec331c03e7e3fd2d1b65607ec912e9a4d413db3ea04f6418a"),
    ("simon", {"alpha": 0.4}, "64fec19fc7a9f5b29cd9d149e1185aec473b2144b0723a818ed425fd02979070"),
    ("conjunct", {"a": 0.0, "b": 0.0}, "58735875de1a194f46411d9d43f55e53146f3f903f562b49c2aa2c86098af5f7"),
    ("conjunct", {"a": 0.0, "b": 0.8}, "e2e7ef65c833afc5131c38c0f4725c231bb7ef56fbdbdc3e67294eb31b959fa8"),
    ("conjunct", {"a": 0.68, "b": 0.0}, "7dbc270082029ba9e463ef459ada7437d1e3f1d1b735cfe76eb896a160054400"),
    ("conjunct", {"a": 0.68, "b": 0.8}, "718a08f6e7d2e82977ccf36ddf2f4fbc7958d91868fad50febea61f7cf41bfe6"),
    ("pitman_yor", {"a": 0.0, "b": 0.0}, "58735875de1a194f46411d9d43f55e53146f3f903f562b49c2aa2c86098af5f7"),
    ("pitman_yor", {"a": 0.0, "b": 0.8}, "4be610f953b0b302efa08a98dc08720206954e3f4ed34f2f93fb480271d124bc"),
    ("pitman_yor", {"a": 0.68, "b": 0.0}, "2f8d3a0ce9f32a00f86a6dbabc616b3cad63aae24a64176efe8bf6c31b299e14"),
    ("pitman_yor", {"a": 0.68, "b": 0.8}, "c78b9273f6ad0e65c17f90849896d783e907e8f53d2197992f955f3902b01734"),
]


@pytest.mark.parametrize("model,params,digest", PINNED_DIGESTS)
def test_generated_bytes_pinned(model, params, digest):
    # the random stream and its mapping to ids are part of the contract:
    # a (parameters, seed) pair gives the same bytes in every release
    h = hashlib.sha256()
    for length in PINNED_LENGTHS:
        for seed in PINNED_SEEDS:
            tokens = generate(ModelParams(model=model, length=length, seed=seed, **params)).tokens
            h.update(tokens.astype(np.int64).tobytes())
    assert h.hexdigest() == digest


_RESAMPLE_SOURCE = ModelParams(model="simon", length=5000, seed=3, alpha=0.2)
RESAMPLED_LENGTHS = (1, 2, 17, 2**14, 2**14 + 1, 70_000)
# the same digest over each resampler's output at RESAMPLED_LENGTHS x PINNED_SEEDS
RESAMPLED_DIGESTS = [
    ("shuffle", lambda n, seed: shuffle(generate(ModelParams(model="simon", length=n, seed=9, alpha=0.2)), seed),
     "65e5ca5a5ea394e17e69959e4757d890984bd1a426c84fd49d445837547fb459"),
    ("bigram", lambda n, seed: generate_bigram(generate(_RESAMPLE_SOURCE), n, seed),
     "d4ab7f52799a7bf2353c3e88ec7bb17f342af8b43f0d0041e3cac05176f66dea"),
    ("zipf", lambda n, seed: generate_zipf_iid(1000, 1.1, n, seed),
     "8aa6f35a7ac1b62b3302c848a5ed27607bc5e7773ae0374942d2c5c720242e29"),
]


@pytest.mark.parametrize("make,digest", [case[1:] for case in RESAMPLED_DIGESTS],
                         ids=[case[0] for case in RESAMPLED_DIGESTS])
def test_resampled_ids_pinned(make, digest):
    h = hashlib.sha256()
    for length in RESAMPLED_LENGTHS:
        for seed in PINNED_SEEDS:
            h.update(make(length, seed).tokens.astype(np.int64).tobytes())
    assert h.hexdigest() == digest


def _mean_vocabulary(a, b, ns):
    """E[K_n] at each n of `ns` under the (a, b) innovation rule, from
    E[K_1] = 1 and E[K_{t+1}] = E[K_t] + (a E[K_t] + b) / (t + b), which
    is exact as the rate is linear in K."""
    ek, out = 1.0, []
    for t in range(1, max(ns)):
        ek += (a * ek + b) / (t + b)
        if t + 1 in ns:
            out.append(ek)
    return np.array(out)


class TestInnovationLaw:
    """Over many seeds the mean vocabulary after n tokens follows the exact
    law of the innovation rule, at every n: a wrong rate misses it early
    and late, where a fitted Heaps exponent need not move."""

    SEEDS = 400
    NS = (10**2, 10**3, 10**4)
    Z = 4.0  # |mean - law| / standard error, over 400 seeds at each n

    @pytest.mark.parametrize("model,params", [
        ("simon", {"alpha": 0.1}),
        ("conjunct", {"a": 0.68, "b": 0.0}),
        ("pitman_yor", {"a": 0.3, "b": 10.0}),
    ])
    def test_mean_vocabulary(self, model, params):
        # ids are in first-occurrence order, so K_n is the largest id of
        # the first n tokens plus 1
        k = np.array([
            [int(tokens[:n].max()) + 1 for n in self.NS]
            for tokens in (
                generate(ModelParams(model=model, length=max(self.NS), seed=seed, **params)).tokens
                for seed in range(self.SEEDS)
            )
        ])
        if model == "simon":
            law = 1 + params["alpha"] * (np.array(self.NS) - 1)
        else:
            law = _mean_vocabulary(params["a"], params["b"], self.NS)
        z = (k.mean(axis=0) - law) / (k.std(axis=0, ddof=1) / np.sqrt(self.SEEDS))
        assert np.all(np.abs(z) < self.Z), z


class TestBlockDraws:
    """PCG64 gives the same numbers drawn a block at a time as drawn at
    once, so the bulk generators keep the stream of whole-length draws."""

    N = 2**17 + 5

    @staticmethod
    def _edges(block, n):
        return [(lo, min(lo + block, n)) for lo in range(0, n, block)]

    @pytest.mark.parametrize("block", [1, 7, 2**16 + 3])
    def test_random(self, block):
        whole, parts = np.random.default_rng(21), np.random.default_rng(21)
        expected = whole.random(self.N)
        drawn = np.concatenate([parts.random(hi - lo) for lo, hi in self._edges(block, self.N)])
        assert np.array_equal(drawn, expected)
        assert parts.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("block", [1, 7, 2**16 + 3])
    def test_integers_with_array_bounds(self, block):
        # each bound fits 32 bits, so every draw takes half of a 64-bit
        # output and the other half waits in the generator for the next
        whole, parts = np.random.default_rng(22), np.random.default_rng(22)
        expected = whole.integers(0, np.arange(1, self.N))
        drawn = np.concatenate(
            [parts.integers(0, np.arange(lo + 1, hi + 1)) for lo, hi in self._edges(block, self.N - 1)]
        )
        assert np.array_equal(drawn, expected)
        assert parts.bit_generator.state == whole.bit_generator.state


class TestSimon:
    def test_vocabulary_growth_binomial(self):
        length, alpha = 10**5, 0.1
        p = ModelParams(model="simon", length=length, seed=9, alpha=alpha)
        seq = generate_simon(p)
        k = int(seq.tokens.max()) + 1
        mean = 1 + alpha * (length - 1)
        sd = np.sqrt((length - 1) * alpha * (1 - alpha))
        assert abs(k - mean) < 4 * sd

    def test_ids_dense_first_occurrence(self):
        p = ModelParams(model="simon", length=5000, seed=1, alpha=0.2)
        seq = generate_simon(p)
        uniq, first = np.unique(seq.tokens, return_index=True)
        assert uniq.tolist() == list(range(len(uniq)))
        assert np.all(np.diff(first[np.argsort(uniq)]) > 0)

    def test_deterministic(self):
        p = ModelParams(model="simon", length=20000, seed=123, alpha=0.15)
        assert np.array_equal(generate_simon(p).tokens, generate_simon(p).tokens)


class TestPitmanYor:
    def test_degenerate_constant(self):
        p = ModelParams(model="pitman_yor", length=100, seed=0, a=0.0, b=0.0)
        seq = generate_pitman_yor(p)
        assert np.all(seq.tokens == 0)

    def test_deterministic(self):
        p = ModelParams(model="pitman_yor", length=20000, seed=77, a=0.68, b=0.8)
        assert np.array_equal(
            generate_pitman_yor(p).tokens, generate_pitman_yor(p).tokens
        )

    def test_counts_match_weight_index_semantics(self):
        # final type frequencies equal the emitted token counts
        p = ModelParams(model="pitman_yor", length=5000, seed=5, a=0.5, b=1.0)
        seq = generate_pitman_yor(p)
        counts = np.bincount(seq.tokens)
        assert counts.sum() == 5000
        assert np.all(counts >= 1)

    def test_vocab_growth_matches_conjunct(self):
        # both models share the innovation law, so final vocabulary sizes
        # agree in distribution
        a, b, length = 0.6, 0.8, 3 * 10**4
        k_py, k_cj = [], []
        for seed in range(10):
            py = generate_pitman_yor(
                ModelParams(model="pitman_yor", length=length, seed=seed, a=a, b=b)
            )
            cj = generate_conjunct(
                ModelParams(model="conjunct", length=length, seed=seed + 100, a=a, b=b)
            )
            k_py.append(int(py.tokens.max()) + 1)
            k_cj.append(int(cj.tokens.max()) + 1)
        mean_py, mean_cj = np.mean(k_py), np.mean(k_cj)
        pooled_sd = np.sqrt((np.var(k_py) + np.var(k_cj)) / 10)
        assert abs(mean_py - mean_cj) < 3 * pooled_sd

    @pytest.mark.parametrize("length", [2**14 - 1, 2**14 + 1, 2**14 + 3, 3 * 2**14, 70_000])
    @pytest.mark.parametrize("a,b", AB_CELLS)
    def test_first_positions_match_conjunct(self, a, b, length):
        # a paired design: for the same (a, b, length, seed) both models draw
        # the same innovation uniforms, so every type is born at the same
        # position, and they differ only in which earlier type a reuse takes;
        # at (0, 0) both are constant and draw nothing
        for seed in (0, 1, 2):
            py, cj = (
                generate(ModelParams(model=model, length=length, seed=seed, a=a, b=b))
                for model in ("pitman_yor", "conjunct")
            )
            first_py, first_cj = (np.unique(seq.tokens, return_index=True)[1] for seq in (py, cj))
            assert np.array_equal(first_py, first_cj)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.68, 0.0)])
    def test_length_four_law(self, a, b):
        # the 15 canonical sequences of length 4 against their exact
        # probabilities under the (a, b) reuse and innovation rule
        def law(prefix):
            if len(prefix) == 4:
                return {tuple(prefix): 1.0}
            t, counts = len(prefix), np.bincount(prefix)
            k = counts.size
            out = {}
            for tok, w in list(enumerate(counts - a)) + [(k, a * k + b)]:
                for seq, p in law(prefix + [tok]).items():
                    out[seq] = out.get(seq, 0.0) + p * w / (t + b)
            return out

        probs = law([0])
        assert len(probs) == 15
        index = {seq: i for i, seq in enumerate(probs)}
        seeds = 20_000
        counts = np.zeros(len(probs), dtype=np.int64)
        for seed in range(seeds):
            p = ModelParams(model="pitman_yor", length=4, seed=seed, a=a, b=b)
            counts[index[tuple(generate_pitman_yor(p).tokens.tolist())]] += 1
        expected = seeds * np.array(list(probs.values()))
        assert chisquare(counts, f_exp=expected).pvalue > 0.001


class TestConjunct:
    def test_degenerate_constant(self):
        p = ModelParams(model="conjunct", length=100, seed=0, a=0.0, b=0.0)
        seq = generate_conjunct(p)
        assert np.all(seq.tokens == 0)

    def test_deterministic(self):
        p = ModelParams(model="conjunct", length=20000, seed=42, a=0.68, b=0.8)
        assert np.array_equal(generate_conjunct(p).tokens, generate_conjunct(p).tokens)

    def test_dispatch(self):
        p = ModelParams(model="conjunct", length=1000, seed=3, a=0.5, b=0.5)
        assert generate(p) == generate_conjunct(p)


class TestZipfIid:
    def test_single_type(self):
        seq = generate_zipf_iid(1, 1.0, 50, 0)
        assert np.all(seq.tokens == 0)

    def test_rank_one_frequency(self):
        vocab, length = 500, 10**5
        seq = generate_zipf_iid(vocab, 1.0, length, 13)
        harmonic = np.sum(1.0 / np.arange(1, vocab + 1))
        p1 = 1.0 / harmonic
        top = int(rank_frequency(seq).frequencies[0])
        sd = np.sqrt(length * p1 * (1 - p1))
        assert abs(top - length * p1) < 4 * sd

    def test_parameter_validation(self):
        with pytest.raises(DataError):
            generate_zipf_iid(0, 1.0, 10, 0)
        with pytest.raises(DataError):
            generate_zipf_iid(10, -1.0, 10, 0)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf")])
    def test_non_finite_exponent(self, exponent):
        with pytest.raises(DataError, match="parameter out of range: exponent"):
            generate_zipf_iid(10, exponent, 10, 0)

    def test_ids_first_occurrence_order(self):
        seq = generate_zipf_iid(50, 1.0, 2000, 21)
        uniq, first = np.unique(seq.tokens, return_index=True)
        order = np.argsort(uniq)
        assert np.all(np.diff(first[order]) > 0)


def bigram_oracle(corpus, length, seed):
    """The per-step resampler: one branch for the successor draw and one
    for the restart of a type without successors, over Python lists."""
    rng = np.random.default_rng(seed)
    ids = corpus.tokens
    heads = ids[:-1]
    order = np.argsort(heads, kind="stable")
    successors = ids[1:][order].tolist()
    n_types = int(ids.max()) + 1
    head_counts = np.bincount(heads, minlength=n_types)
    offsets = np.concatenate(([0], np.cumsum(head_counts))).tolist()
    head_counts = head_counts.tolist()
    corpus_list = ids.tolist()
    m_c = corpus.m
    u = rng.random(length).tolist()
    out = [corpus_list[int(u[0] * m_c)]]
    cur = out[0]
    for step in range(1, length):
        n_succ = head_counts[cur]
        if n_succ:
            cur = successors[offsets[cur] + int(u[step] * n_succ)]
        else:
            cur = corpus_list[int(u[step] * m_c)]
        out.append(cur)
    return _resampled(np.array(out, dtype=id_dtype(length)), corpus)


_BIGRAM_CORPORA = {
    "named": TokenSequence(np.array([0, 1, 0, 2, 1, 0, 3, 2, 2, 1]), symbols=("a", "b", "c", "d")),
    "unnamed": TokenSequence(dense(np.random.default_rng(14).integers(0, 40, size=3000))),
    # six types, relabelled from sparse labels
    "sparse": TokenSequence(dense(np.random.default_rng(15).integers(0, 6, size=500) * 9 + 4)),
    # The last type occurs once, at the end: it has no successor, so a
    # draw that reaches it restarts from the whole corpus.
    "closing_type": TokenSequence(np.array([0, 1, 2, 1, 0, 2, 2, 1, 3]), symbols=("w", "x", "y", "z")),
}


class TestBigram:
    @pytest.mark.parametrize("name", sorted(_BIGRAM_CORPORA))
    @pytest.mark.parametrize("length", [1, 2, 1000])
    def test_matches_per_step_oracle(self, name, length):
        corpus = _BIGRAM_CORPORA[name]
        for seed in range(10):
            got = generate_bigram(corpus, length, seed)
            want = bigram_oracle(corpus, length, seed)
            assert got == want
            assert list(got.surfaces()) == list(want.surfaces())

    def test_closing_type_restarts(self):
        corpus = _BIGRAM_CORPORA["closing_type"]
        out = list(generate_bigram(corpus, 1000, 2).surfaces())
        restarts = [nxt for cur, nxt in zip(out[:-1], out[1:]) if cur == "z"]
        assert restarts and set(restarts) <= {"w", "x", "y", "z"}

    def test_alternating_corpus(self):
        corpus = TokenSequence(np.array([0, 1, 0, 1]), symbols=("a", "b"))
        seq = generate_bigram(corpus, 200, 3)
        diffs = np.abs(np.diff(seq.tokens))
        assert np.all(diffs == 1)

    def test_support_containment(self):
        rng = np.random.default_rng(6)
        corpus = TokenSequence(dense(rng.integers(0, 20, size=2000)))
        seq = generate_bigram(corpus, 5000, 7)
        # The output is relabelled, so pairs are compared by surface form.
        source = list(corpus.surfaces())
        bigrams = set(zip(source[:-1], source[1:]))
        heads_with_succ = {h for h, _ in bigrams}
        out = list(seq.surfaces())
        assert set(out) <= set(source)
        for x, y in zip(out[:-1], out[1:]):
            if x in heads_with_succ:
                assert (x, y) in bigrams

    def test_corpus_too_short(self):
        corpus = TokenSequence(np.array([0]))
        with pytest.raises(DataError):
            generate_bigram(corpus, 10, 0)

    def test_length_below_one(self):
        corpus = _BIGRAM_CORPORA["named"]
        with pytest.raises(DataError, match="parameter out of range: length must be >= 1"):
            generate_bigram(corpus, 0, 0)

    def test_widths_counted_across_blocks(self):
        # a corpus of several counting blocks, with a type that only closes it
        ids = dense(np.random.default_rng(16).integers(0, 50, size=(3 << 14) + 5))
        ids[-1] = 50
        corpus = TokenSequence(ids)
        chain = genmodels._BigramChain(corpus)
        want = np.bincount(ids[:-1], minlength=52)
        assert chain.width.dtype == corpus.tokens.dtype
        assert np.array_equal(chain.width[want > 0], want[want > 0])
        assert np.all(chain.width[want == 0] == ids.size)
        assert generate_bigram(corpus, 5000, 3) == bigram_oracle(corpus, 5000, 3)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        corpus = TokenSequence(dense(rng.integers(0, 10, size=500)))
        a = generate_bigram(corpus, 3000, 11)
        b = generate_bigram(corpus, 3000, 11)
        assert np.array_equal(a.tokens, b.tokens)


# lanes of 8 steps in spans of 64, so that short sequences cross many
# lane and span edges; the cycle's chains never meet, so every lane after
# a wrong guess is repaired to its end
_LANE_CORPORA = {
    **_BIGRAM_CORPORA,
    "alternating": TokenSequence(np.array([0, 1, 0, 1])),
    "cycle": TokenSequence(np.arange(300) % 3),
}


class TestBigramLanes:
    @pytest.fixture
    def walks(self, monkeypatch):
        """Lanes of 8 in spans of 64; lists the start of every scalar walk."""
        monkeypatch.setattr(genmodels, "_LANE", 8)
        monkeypatch.setattr(genmodels, "_SPAN", 64)
        walks = []
        walk = genmodels._BigramChain.walk

        def recorded(self, cur, xs, row):
            walks.append(cur)
            walk(self, cur, xs, row)

        monkeypatch.setattr(genmodels._BigramChain, "walk", recorded)
        return walks

    @pytest.mark.parametrize("name", sorted(_LANE_CORPORA))
    @pytest.mark.parametrize("length", [7, 8, 9, 16, 17, 64, 65, 192, 193, 1000])
    def test_matches_per_step_oracle(self, walks, name, length):
        corpus = _LANE_CORPORA[name]
        for seed in range(6):
            got = generate_bigram(corpus, length, seed)
            want = bigram_oracle(corpus, length, seed)
            assert got == want
            assert list(got.surfaces()) == list(want.surfaces())

    def test_cycle_is_repaired(self, walks):
        got = generate_bigram(_LANE_CORPORA["cycle"], 1000, 1)
        assert got == bigram_oracle(_LANE_CORPORA["cycle"], 1000, 1)
        # a lane guessed in the wrong phase never meets the true chain, so
        # the scalar pass repairs it
        assert walks

    def test_crosses_a_span_edge(self):
        length = genmodels._SPAN + 3
        corpus = _BIGRAM_CORPORA["unnamed"]
        assert generate_bigram(corpus, length, 4) == bigram_oracle(corpus, length, 4)


@given(st.lists(st.one_of(st.sampled_from([0, 2**16 - 1, 2**16, 2**31 - 1]),
                          st.integers(0, 2**31 - 1), st.integers(0, 2**17)),
                min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_radix_order_is_stable_argsort(keys):
    keys = np.array(keys, dtype=np.int32)
    want = np.argsort(keys, kind="stable")
    assert np.array_equal(genmodels._sorted_by(keys, np.arange(keys.size)), want)


class TestShuffle:
    def test_multiset_preserved(self):
        rng = np.random.default_rng(10)
        seq = TokenSequence(dense(rng.integers(0, 30, size=4000)))
        out = shuffle(seq, 5)
        # The output is relabelled, so types are compared by surface form.
        assert Counter(out.surfaces()) == Counter(seq.surfaces())

    def test_rank_frequency_preserved(self):
        rng = np.random.default_rng(12)
        seq = TokenSequence(dense(rng.integers(0, 30, size=4000)))
        out = shuffle(seq, 5)
        assert rank_frequency(out) == rank_frequency(seq)
        assert len(np.unique(out.tokens)) == len(np.unique(seq.tokens))

    def test_deterministic(self):
        seq = TokenSequence(np.arange(1000) % 17)
        assert np.array_equal(shuffle(seq, 9).tokens, shuffle(seq, 9).tokens)

    def test_same_stream_as_index_permutation(self):
        # permuting the ids makes the swaps of permuting their positions
        seq = generate(ModelParams(model="simon", length=5000, seed=2, alpha=0.2))
        for seed in range(3):
            moved = seq.tokens[np.random.default_rng(seed).permutation(seq.m)]
            assert np.array_equal(np.random.default_rng(seed).permutation(seq.tokens), moved)
            out = shuffle(seq, seed)
            assert [out.surface(t) for t in out.tokens.tolist()] == [seq.surface(t) for t in moved.tolist()]


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("draw", [
    lambda seed: generate_zipf_iid(10, 1.0, 10, seed),
    lambda seed: generate_bigram(TokenSequence(np.array([0, 1, 0])), 10, seed),
    lambda seed: shuffle(TokenSequence(np.array([0, 1, 0])), seed),
    lambda seed: ModelParams(model="simon", length=10, seed=seed, alpha=0.1),
], ids=["zipf", "bigram", "shuffle", "model_params"])
def test_seed_must_fit_in_64_bits(draw, seed):
    with pytest.raises(DataError, match="seed must fit in 64 bits"):
        draw(seed)


class TestRelabel:
    def test_matches_sorting_reference(self):
        # several relabelling blocks, sparse labels, and labels that first
        # occur late
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 10**6, size=3000) * 7
        raw = labels[np.minimum(rng.zipf(1.3, size=50_000), labels.size) - 1]
        raw[-3:] = [10**8, 5, 10**8]
        uniq, first = np.unique(raw, return_index=True)
        order = uniq[np.argsort(first)]
        new_id = {label: i for i, label in enumerate(order.tolist())}
        ids = raw.copy()
        assert _relabel_first_occurrence(ids).tolist() == order.tolist()
        assert ids.tolist() == [new_id[x] for x in raw.tolist()]

    def test_resampled_takes_over_the_ids(self):
        source = TokenSequence(np.array([0, 1, 2, 3]), symbols=("a", "b", "c", "d"))
        ids = np.array([3, 1, 3, 0], dtype=id_dtype(4))
        out = _resampled(ids, source)
        assert out.tokens.tolist() == [0, 1, 0, 2]
        assert out.symbols == ("d", "b", "a")
        assert np.shares_memory(out.tokens, ids) and not out.tokens.flags.writeable


class TestMetadata:
    def test_fields(self, tmp_path):
        p = ModelParams(model="simon", length=500, seed=4, alpha=0.3)
        seq = generate_simon(p)
        meta = _generated_metadata(tmp_path, "--model", "simon", "--alpha", "0.3",
                                   "--length", "500", "--seed", "4")
        assert meta["model"] == "simon"
        assert meta["params"] == {"alpha": 0.3}
        assert meta["seed"] == 4
        assert meta["length"] == 500
        assert meta["final_vocab"] == int(seq.tokens.max()) + 1
        assert "degenerate" not in meta
