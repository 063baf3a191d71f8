import ast
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrclab
from lrclab import seqcore
from lrclab.corpusio import extract_speaker_with_stats, parse_chat, read_token_file, read_tokens
from lrclab.genmodels import ModelParams, _relabel_first_occurrence, generate, generate_bigram, generate_zipf_iid, shuffle
from lrclab.lrcstats import acf_curve, autocorrelation
from lrclab.seqcore import (
    GRID_PER_DECADE,
    AcfCurve,
    DataError,
    IntervalSequence,
    RankFrequency,
    TokenSequence,
    TypeTokenCurve,
    id_dtype,
    log_grid,
    moments,
    open_output,
    read_acf_csv,
    read_blocks,
    read_text,
    sequence_from_surface,
    write_acf_csv,
    write_intervals_csv,
    write_json,
    write_rank_frequency_csv,
    write_token_file,
    write_type_token_csv,
)

from dense_labels import dense


class TestMoments:
    def test_constant_series(self):
        assert moments([2, 2, 2]) == (2.0, 0.0)

    def test_two_values(self):
        assert moments([1, 4]) == (2.5, 1.5)

    def test_population_sigma(self):
        mean, sd = moments([1, 1, 3])
        assert mean == pytest.approx(5 / 3)
        assert sd == pytest.approx(math.sqrt(8 / 9))

    def test_empty(self):
        with pytest.raises(DataError, match="empty series"):
            moments([])

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200), st.randoms())
    def test_permutation_invariant(self, xs, rnd):
        base = moments(xs)
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        perm = moments(shuffled)
        assert perm[0] == pytest.approx(base[0], abs=1e-9)
        assert perm[1] == pytest.approx(base[1], abs=1e-9)


class TestTokenSequence:
    def test_basic(self):
        seq = TokenSequence(np.array([0, 1, 0]), symbols=("a", "b"))
        assert seq.m == 3
        assert seq.surface(1) == "b"

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            TokenSequence(np.array([], dtype=np.int64))

    def test_symbol_table_must_cover_ids(self):
        with pytest.raises(DataError, match="symbol table does not cover all ids"):
            TokenSequence(np.array([0, 1, 2]), symbols=("a", "b"))

    def test_negative_ids_rejected(self):
        with pytest.raises(DataError):
            TokenSequence(np.array([0, -1]))

    def test_immutable(self):
        seq = TokenSequence(np.array([0, 1]))
        with pytest.raises(ValueError):
            seq.tokens[0] = 5

    def test_caller_array_stays_writable_and_unshared(self):
        arr = np.array([0, 1, 0], dtype=np.int64)
        seq = TokenSequence(arr)
        assert arr.flags.writeable and not np.shares_memory(arr, seq.tokens)
        arr[0] = 1
        assert seq.tokens.tolist() == [0, 1, 0]

    def test_adopt_freezes_without_copy(self):
        arr = np.array([0, 1, 0], dtype=id_dtype(3))
        seq = TokenSequence._adopt(arr, symbols=["a", "b"])
        assert np.shares_memory(arr, seq.tokens) and not seq.tokens.flags.writeable
        assert seq == TokenSequence(np.array([0, 1, 0]), symbols=("a", "b"))

    @pytest.mark.parametrize("tokens,symbols", [([], None), ([0, -1], None), ([0, 1, 2], ("a", "b"))])
    def test_adopt_validates(self, tokens, symbols):
        with pytest.raises(DataError):
            TokenSequence._adopt(np.array(tokens, dtype=id_dtype(len(tokens))), symbols=symbols)

    def test_first_occurrence_ids(self):
        seq = sequence_from_surface(["b", "a", "b", "c"])
        assert seq.tokens.tolist() == [0, 1, 0, 2]
        assert seq.symbols == ("b", "a", "c")


class TestIdOrder:
    """TokenSequence takes only ids that are dense and in first-occurrence
    order: the first is 0, and none exceeds the largest before it by more
    than 1. The constructor and _adopt both check it, a block of 2**14 ids
    at a time, carrying the largest id from block to block."""

    REFUSED = [[1, 0], [0, 2], [0, 1, 3], [0, 10**7], [0, 2**31]]

    @pytest.mark.parametrize("tokens", REFUSED, ids=str)
    def test_constructor_refuses(self, tokens):
        with pytest.raises(DataError, match="ids must be dense and in first-occurrence order"):
            TokenSequence(np.array(tokens))

    @pytest.mark.parametrize("tokens", [t for t in REFUSED if max(t) < 2**31], ids=str)
    def test_adopt_refuses(self, tokens):
        with pytest.raises(DataError, match="ids must be dense and in first-occurrence order"):
            TokenSequence._adopt(np.array(tokens, dtype=np.int32))

    @pytest.mark.parametrize("at", [seqcore._BLOCK - 1, seqcore._BLOCK, seqcore._BLOCK + 1])
    def test_checked_across_block_edges(self, at):
        # ids 0..at-1, each new, then at position `at` an old id, the next
        # new id, or one past it
        for nxt, taken in ((0, True), (at, True), (at + 1, False)):
            tokens = np.concatenate((np.arange(at), [nxt, 0, nxt]))
            for make in (TokenSequence, lambda ids: TokenSequence._adopt(ids.astype(np.int32))):
                if taken:
                    assert make(tokens).tokens.tolist() == tokens.tolist()
                else:
                    with pytest.raises(DataError, match="first-occurrence order"):
                        make(tokens)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_takes_exactly_the_relabelled_labels(self, labels):
        relabelled = dense(labels)
        assert TokenSequence(relabelled).tokens.tolist() == relabelled.tolist()
        if relabelled.tolist() == labels:
            assert TokenSequence(np.array(labels)).tokens.tolist() == labels
        else:
            with pytest.raises(DataError, match="first-occurrence order"):
                TokenSequence(np.array(labels))


class TestIntervalSequence:
    @pytest.mark.parametrize("xs", [
        [1, 4] * 100,
        list(range(1, 301)),
        [3, 1, 4, 1, 5, 9, 2, 6] * 120 + [7],
        np.random.default_rng(11).integers(1, 1000, size=4321).tolist(),
    ], ids=["alternating", "ramp", "periodic", "random"])
    def test_curve_is_the_autocorrelation(self, xs):
        """The gaps are the only field, and the curve is the autocorrelation
        of the gaps at each grid offset, bit for bit."""
        ints = IntervalSequence(np.array(xs))
        assert [f.name for f in fields(IntervalSequence)] == ["intervals"]
        assert ints.m_n == len(xs)
        grid = log_grid(len(xs) // 100).tolist()
        assert acf_curve(ints).values.tolist() == [autocorrelation(xs, s) for s in grid]
        assert autocorrelation(xs, 0) == 1.0

    def test_positive_required(self):
        with pytest.raises(DataError):
            IntervalSequence(np.array([1, 0]))


class TestLogGrid:
    def test_limit_one(self):
        assert log_grid(1).tolist() == [1]

    def test_strictly_increasing_and_bounded(self):
        grid = log_grid(1000)
        assert grid[0] == 1
        assert grid[-1] == 1000
        assert np.all(np.diff(grid) > 0)

    def test_twenty_per_decade(self):
        grid = log_grid(10**5)
        last_decade = grid[(grid > 10**4) & (grid <= 10**5)]
        assert len(last_decade) == 20

    def test_small_integers_dense(self):
        grid = log_grid(10)
        assert grid.tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]

    def test_equals_unique_of_the_rounded_powers(self):
        for limit in [*range(1, 300), 999, 1000, 1001, 31623, 10**5, 123457, 10**8, 10**12]:
            kmax = int(math.ceil(GRID_PER_DECADE * math.log10(limit))) + 1
            raw = np.round(10.0 ** (np.arange(kmax + 1) / GRID_PER_DECADE)).astype(np.int64)
            expected = np.unique(raw)
            grid = log_grid(limit)
            assert grid.dtype == np.int64
            assert grid.tolist() == expected[expected <= limit].tolist(), limit

    def test_first_curve_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call in a process, which
        # holds about 1 MB; the grid needs no more than a neighbour comparison.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from lrclab.lrcstats import acf_curve\n"
            "from lrclab.seqcore import IntervalSequence\n"
            "ints = IntervalSequence(np.random.default_rng(1).integers(1, 10, 1000))\n"
            "before = 'numpy.ma' in sys.modules\n"
            "acf_curve(ints)\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(lrclab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.split() == ["False", "False"]


class TestOpenOutput:
    def test_completed_block_replaces_target(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        write_json(target, {"word": "caf\u00e9", "ids": [1, 2]})
        assert target.read_bytes() == '{\n  "word": "caf\\u00e9",\n  "ids": [\n    1,\n    2\n  ]\n}\n'.encode()
        with open_output(target) as fh:
            fh.write("caf\u00e9\n")
        assert target.read_bytes() == "caf\u00e9\n".encode("utf-8")
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failed_block_keeps_existing_target(self, tmp_path, error):
        target = tmp_path / "tokens.txt"
        target.write_bytes(b"old\n")
        with pytest.raises(error):
            with open_output(target) as fh:
                fh.write("new\n" * 1000)
                fh.flush()
                raise error("interrupted")
        assert target.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_block_creates_nothing(self, tmp_path):
        # A symbol that is not a string fails the symbol check's join, before the block.
        seq = TokenSequence(np.array([0, 1]), symbols=("a", object()))
        with pytest.raises(TypeError):
            write_token_file(seq, tmp_path / "tokens.txt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["", "a b", "\u3000", " "])
    def test_unwritable_symbol_creates_nothing(self, tmp_path, bad):
        # one token per line: an empty symbol or one holding whitespace would not read back
        seq = TokenSequence(np.array([0, 1, 0]), symbols=("a", bad))
        with pytest.raises(DataError, match="is not one token"):
            write_token_file(seq, tmp_path / "tokens.txt")
        assert list(tmp_path.iterdir()) == []


def _unguarded_writes(source: str) -> list[int]:
    """Lines that open a file for writing outside seqcore.open_output:
    open(...) or .open(...) with a write mode (or a mode that is not a
    literal), and .write_text(...) / .write_bytes(...)."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "open_output":
            exempt.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            # open(file, mode) takes the mode second, Path.open(mode) first.
            position = 1 if isinstance(func, ast.Name) else 0
            mode = node.args[position] if len(node.args) > position else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
                lines.append(node.lineno)
    return lines


class TestOneWriter:
    def test_sources_write_only_through_open_output(self):
        sources = {p.name: p.read_text(encoding="utf-8") for p in Path(lrclab.__file__).parent.glob("*.py")}
        assert [name for name, text in sources.items() if "def open_output" in text] == ["seqcore.py"]
        found = {name: lines for name, text in sources.items() if (lines := _unguarded_writes(text))}
        assert found == {}

    @pytest.mark.parametrize("source", [
        "open(p, 'w')",
        "open(p, mode='a', encoding='utf-8')",
        "open(p, 'r+b')",
        "open(p, 'x')",
        "open(p, m)",
        "p.open('wb')",
        "p.open(mode='w')",
        "p.write_text(s)",
        "Path(p).write_bytes(b)",
        "def open_output_for(p):\n    return open(p, 'w')",
        "def f():\n    def open_output(p):\n        pass\n    p.write_text(s)",
    ])
    def test_guard_catches(self, source):
        assert _unguarded_writes(source)

    @pytest.mark.parametrize("source", [
        "open(p)",
        "open(p, 'rb')",
        "open(p, encoding='utf-8', newline='')",
        "p.open()",
        "p.read_text()",
        "def open_output(p):\n    with open(p, 'w') as fh:\n        yield fh",
    ])
    def test_guard_allows(self, source):
        assert _unguarded_writes(source) == []


def _unguarded_reads(source: str) -> list[int]:
    """Lines that read a file outside seqcore's readers: a .read_text(...)
    or .read_bytes(...) method call, or any open(...) / .open(...) outside
    read_text, read_blocks and open_output (writes go through the last)."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("read_text", "read_blocks", "open_output"):
            exempt.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes", "open"):
            lines.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id == "open":
            lines.append(node.lineno)
    return lines


def _read_all(path):
    """The text read_blocks gives, its blocks joined at the cuts."""
    return "\n".join(read_blocks(path, re.compile("\n"), 4))


class TestOneReader:
    def test_sources_read_only_through_read_text(self):
        sources = {p.name: p.read_text(encoding="utf-8") for p in Path(lrclab.__file__).parent.glob("*.py")}
        for reader in ("def read_text", "def read_blocks"):
            assert [name for name, text in sources.items() if reader in text] == ["seqcore.py"]
        found = {name: lines for name, text in sources.items() if (lines := _unguarded_reads(text))}
        assert found == {}

    @pytest.mark.parametrize("source", ["Path(p).read_text()", "p.read_bytes()", "open(p)", "p.open()"])
    def test_guard_catches(self, source):
        assert _unguarded_reads(source)

    @pytest.mark.parametrize("source", ["read_text(p)", "read_text(p, 'sweep spec')", "read_blocks(p, sep, 4)",
                                        "def read_text(p):\n    return Path(p).read_text()",
                                        "def read_blocks(p):\n    with open(p) as fh:\n        yield fh.read()"])
    def test_guard_allows(self, source):
        assert _unguarded_reads(source) == []

    @pytest.mark.parametrize("content", [None, b"caf\xe9\n"], ids=["missing", "non-utf8"])
    def test_failed_read_is_data_error(self, tmp_path, content):
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_bytes(content)
        for reader in (read_text, _read_all):
            with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: "):
                reader(path)
        with pytest.raises(DataError, match=f"^cannot read sweep spec {re.escape(str(path))}: "):
            read_text(path, "sweep spec")

    def test_reads_utf8(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_bytes("caf\u00e9\n".encode("utf-8"))
        assert read_text(path) == _read_all(path) == "caf\u00e9\n"


class TestRoundTrips:
    def test_token_file(self, tmp_path):
        seq = sequence_from_surface(["oh", "romeo", "romeo", "wherefore"])
        path = tmp_path / "tokens.txt"
        write_token_file(seq, path)
        assert read_token_file(path) == seq

    def test_token_file_without_symbols(self, tmp_path):
        seq = TokenSequence(np.array([0, 1, 0, 2]))
        path = tmp_path / "tokens.txt"
        write_token_file(seq, path)
        back = read_token_file(path)
        assert back.tokens.tolist() == seq.tokens.tolist()
        assert back.symbols == ("w0", "w1", "w2")

    @given(
        st.lists(
            st.text(alphabet="abcdefg", min_size=1, max_size=4),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_token_file_property(self, words):
        import tempfile

        seq = sequence_from_surface(words)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tokens.txt"
            write_token_file(seq, path)
            assert read_token_file(path) == seq

    def test_acf_csv(self, tmp_path):
        curve = AcfCurve(
            np.array([1, 2, 5]), np.array([0.5, -0.25, 0.125]), source_length=1000
        )
        path = tmp_path / "acf.csv"
        write_acf_csv(curve, path)
        assert read_acf_csv(path, source_length=1000) == curve

    def test_acf_csv_full_precision(self, tmp_path):
        values = np.array([0.1 + 1e-17, 1 / 3, -0.07923611111])
        curve = AcfCurve(np.array([1, 2, 3]), values, source_length=500)
        path = tmp_path / "acf.csv"
        write_acf_csv(curve, path)
        back = read_acf_csv(path, source_length=500)
        assert np.array_equal(back.values, curve.values)

    # Nothing reads rankfreq.csv, typetoken.csv or intervals.csv back, so
    # the bytes each writer produces are the contract.
    def test_rank_frequency_csv(self, tmp_path):
        path = tmp_path / "rankfreq.csv"
        write_rank_frequency_csv(RankFrequency(np.array([5, 2, 2, 1])), path)
        assert path.read_bytes() == b"rank,freq\n1,5\n2,2\n3,2\n4,1\n"

    def test_type_token_csv(self, tmp_path):
        path = tmp_path / "typetoken.csv"
        write_type_token_csv(TypeTokenCurve(np.array([1, 2, 5, 9]), np.array([1, 2, 3, 3])), path)
        assert path.read_bytes() == b"m,v\n1,1\n2,2\n5,3\n9,3\n"

    def test_intervals_csv(self, tmp_path):
        path = tmp_path / "intervals.csv"
        write_intervals_csv(IntervalSequence(np.array([1, 4, 2])), path)
        assert path.read_bytes() == b"interval\n1\n4\n2\n"

    # The CSV writers join and write 2**14 rows at a time; the bytes are
    # those of all rows joined at once.
    @pytest.mark.parametrize("rows", [0, 1, 2**14 - 1, 2**14, 2**14 + 1, 2 * 2**14 + 3])
    def test_csv_written_in_blocks(self, tmp_path, rows):
        offsets = np.arange(1, rows + 1)
        values = np.cos(offsets) / 3
        lines = [f"{s},{c!r}" for s, c in zip(offsets.tolist(), values.tolist())]
        want = "".join(f"{line}\n" for line in ["s,c", *lines]).encode()
        seqcore._write_csv(tmp_path / "rows.csv", "s,c", iter(lines))
        assert (tmp_path / "rows.csv").read_bytes() == want
        if rows:
            write_acf_csv(AcfCurve(offsets, values, source_length=100 * rows), tmp_path / "acf.csv")
            assert (tmp_path / "acf.csv").read_bytes() == want
            write_intervals_csv(IntervalSequence(offsets), tmp_path / "intervals.csv")
            want = "interval\n" + "".join(f"{s}\n" for s in offsets.tolist())
            assert (tmp_path / "intervals.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("text", ["s,c\n1,0.5\n2\n", "s,c\n1,0.5,0.25\n", "c,s\n1,0.5\n"])
    def test_malformed_csv_rejected(self, tmp_path, text):
        path = tmp_path / "acf.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="expected"):
            read_acf_csv(path, source_length=1000)


class TestTypeValidation:
    def test_acf_offsets_bounded(self):
        with pytest.raises(DataError):
            AcfCurve(np.array([1, 20]), np.array([0.5, 0.1]), source_length=1000)

    def test_rank_frequencies_non_increasing(self):
        with pytest.raises(DataError):
            RankFrequency(np.array([1, 2]))

    @pytest.mark.parametrize("cls,arr,message", [
        (IntervalSequence, [], "empty interval sequence"),
        (IntervalSequence, [2, 0, 1], "intervals must be positive"),
        (RankFrequency, [], "empty rank-frequency table"),
        (RankFrequency, [3, 0], "frequencies must be positive"),
        (RankFrequency, [3, 1, 2], "frequencies must be non-increasing"),
    ])
    def test_adopt_runs_the_constructor_checks(self, cls, arr, message):
        arr = np.array(arr, dtype=np.int64)
        for make, given in ((cls, arr), (cls._adopt, arr.astype(cls._dtype(arr)))):
            with pytest.raises(DataError, match=message):
                make(given)

    @pytest.mark.parametrize("cls", [IntervalSequence, RankFrequency])
    def test_adopt_freezes_without_copy(self, cls):
        arr = np.array([3, 2, 2], dtype=np.int32 if cls is RankFrequency else np.int64)
        (held,) = vars(cls._adopt(arr)).values()
        assert np.shares_memory(arr, held) and not held.flags.writeable

    def test_rank_frequency_constructor_copies(self):
        arr = np.array([3, 2, 2], dtype=np.int64)
        rank = RankFrequency(arr)
        assert arr.flags.writeable and not np.shares_memory(arr, rank.frequencies)
        arr[0] = 9
        assert rank.frequencies.tolist() == [3, 2, 2]

    def test_type_token_v_not_above_m(self):
        with pytest.raises(DataError):
            TypeTokenCurve(np.array([1, 2]), np.array([1, 3]))

    def test_type_token_first_sample(self):
        with pytest.raises(DataError):
            TypeTokenCurve(np.array([1, 2]), np.array([2, 2]))


# Each frozen value type: its constructor arguments, its expected len(),
# and one replacement per field that must make an otherwise equal copy differ.
VALUE_TYPES = [
    (TokenSequence, dict(tokens=[0, 1, 0, 2], symbols=("a", "b", "c")), 4,
     dict(tokens=[0, 1, 2, 0], symbols=("a", "b", "d"))),
    (IntervalSequence, dict(intervals=[1, 4, 2]), 3, dict(intervals=[1, 4, 3])),
    (AcfCurve, dict(offsets=[1, 2], values=[0.5, 0.25], source_length=300), 2,
     dict(offsets=[1, 3], values=[0.5, 0.125], source_length=400)),
    (RankFrequency, dict(frequencies=[3, 1, 1]), 3, dict(frequencies=[3, 2, 1])),
    (TypeTokenCurve, dict(sizes=[1, 2, 4], vocab=[1, 2, 2]), 3, dict(sizes=[1, 2, 5], vocab=[1, 2, 3])),
]


@pytest.mark.parametrize("cls, kwargs, length, changes", VALUE_TYPES, ids=[t[0].__name__ for t in VALUE_TYPES])
def test_value_type_equality_and_length(cls, kwargs, length, changes):
    value = cls(**kwargs)
    assert value == cls(**kwargs)
    for name, replacement in changes.items():
        assert value != cls(**{**kwargs, name: replacement}), name
    for other_cls, other_kwargs, _, _ in VALUE_TYPES:
        if other_cls is not cls:
            assert value != other_cls(**other_kwargs)
    assert len(value) == length
    with pytest.raises(TypeError):
        hash(value)


def assert_canonical(seq):
    """Ids are dense and numbered in order of first occurrence, `k` is the
    number of distinct ids, and a symbol table has one entry per id."""
    ids, first = np.unique(seq.tokens, return_index=True)
    assert seq.k == ids.size
    assert np.array_equal(ids, np.arange(ids.size))
    assert np.all(np.diff(first) > 0)
    assert seq.symbols is None or len(seq.symbols) == seq.k


_source_ids = st.lists(st.integers(0, 40).map(lambda x: x * x + 3), min_size=2, max_size=200)


class TestProducersReturnCanonicalIds:
    """Every public producer of a TokenSequence numbers ids in first-occurrence
    order, whatever the order of its input's tokens."""

    @given(
        st.sampled_from(("simon", "pitman_yor", "conjunct")),
        st.floats(0.05, 0.95),
        st.floats(0.0, 3.0),
        st.integers(1, 400),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_generators(self, model, a, b, length, seed):
        if model == "simon":
            params = ModelParams(model=model, length=length, seed=seed, alpha=a)
        else:
            params = ModelParams(model=model, length=length, seed=seed, a=a, b=b)
        assert_canonical(generate(params))

    @given(st.integers(1, 60), st.floats(0.3, 2.0), st.integers(1, 400), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_zipf(self, vocab, exponent, length, seed):
        assert_canonical(generate_zipf_iid(vocab, exponent, length, seed))

    @given(_source_ids, st.booleans(), st.integers(1, 300), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_shuffle_and_bigram(self, ids, named, length, seed):
        symbols = tuple(f"s{i}" for i in range(max(ids) + 1)) if named else None
        source = TokenSequence(dense(ids), symbols=symbols)
        for out in (shuffle(source, seed), generate_bigram(source, length, seed)):
            assert_canonical(out)
            assert set(out.surfaces()) <= set(source.surfaces())
        assert sorted(shuffle(source, seed).surfaces()) == sorted(source.surfaces())

    @given(st.lists(st.sampled_from(("a", "B", "b", "Σ", "ΟΔΟΣ", "İ", "xxx")), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_readers(self, words):
        assert_canonical(read_tokens(" ".join(words)))
        doc = parse_chat("".join(f"*CHI:\t{w} .\n" for w in words) + "*CHI:\tend .\n")
        assert_canonical(extract_speaker_with_stats(doc, {"CHI"})[0])


class TestIdDtype:
    """Token ids are stored as id_dtype(m): int32 below 2**31 tokens. The
    boundary itself is tested on the rule alone, in test_genmodels."""

    def test_producers(self):
        text = "a b c a B c d " * 50
        made = [generate(ModelParams(model="simon", length=3000, seed=1, alpha=0.1))]
        for model in ("pitman_yor", "conjunct"):
            for a, b in ((0.68, 0.8), (0.0, 0.0)):
                made.append(generate(ModelParams(model=model, length=3000, seed=1, a=a, b=b)))
        made += [
            shuffle(made[0], 2),
            generate_zipf_iid(100, 1.0, 3000, 2),
            generate_bigram(made[0], 3000, 2),
            read_tokens(text),
            extract_speaker_with_stats(parse_chat("*CHI:\tend end x .\n"), {"CHI"})[0],
            TokenSequence(np.array([0, 1, 0], dtype=np.int64)),
            TokenSequence([0, 1, 0]),
            TokenSequence(np.array([0, 1, 0], dtype=np.uint8)),
        ]
        for seq in made:
            assert seq.tokens.dtype == id_dtype(seq.m) == np.int32

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_relabel_at_the_ids_width(self, dtype):
        # zipf-style ranks with gaps, some above the length: the absent
        # labels get no id, and the ids are written in place at the labels'
        # own width, whatever the width of the length
        ranks = np.array([4, 1, 4, 0, 1, 4, 10**6, 1], dtype=dtype)
        labels = _relabel_first_occurrence(ranks)
        assert ranks.dtype == dtype
        assert ranks.tolist() == [0, 1, 0, 2, 1, 0, 3, 1]
        assert labels.tolist() == [4, 1, 0, 10**6]

    @pytest.mark.parametrize("tokens", [[0, 1, 0, 2], [2, 0, 1, 0], [9, 4, 9, 0]])
    def test_type_stats_at_the_ids_width(self, tokens):
        # labels out of first-occurrence order are refused; relabelled,
        # their per-type counts take the ids' width
        if dense(tokens).tolist() != tokens:
            with pytest.raises(DataError, match="first-occurrence order"):
                TokenSequence(np.array(tokens))
        seq = TokenSequence(dense(tokens))
        assert seq.counts.dtype == seq.tokens.dtype == id_dtype(seq.m)
        assert seq.counts.size == seq.k == len(set(tokens))

    def test_constructor_narrows_its_copy(self):
        arr = np.array([0, 1, 0, 2], dtype=np.int64)
        seq = TokenSequence(arr)
        assert seq.tokens.dtype == np.int32 and seq.tokens.tolist() == arr.tolist()

    def test_constructor_rejects_an_id_that_does_not_fit(self):
        # an id that would not fit int32 skips ids below it
        with pytest.raises(DataError, match="ids must be dense and in first-occurrence order"):
            TokenSequence(np.array([0, 2**31]))

    @pytest.mark.parametrize("freqs,dtype", [([2**31 - 1, 3, 1], np.int32), ([2**31, 3, 1], np.int64),
                                             ([2**40, 2**31, 2**31 - 1], np.int64)])
    def test_rank_frequency_at_the_width_of_its_largest(self, tmp_path, freqs, dtype):
        # a frequency of 2**31 or more keeps the table int64, and the rows
        # written are the same at either width
        rank = RankFrequency(np.array(freqs, dtype=np.int64))
        assert rank.frequencies.dtype == dtype and rank.frequencies.tolist() == freqs
        assert RankFrequency._adopt(rank.frequencies.copy()) == rank
        path = tmp_path / "rankfreq.csv"
        write_rank_frequency_csv(rank, path)
        assert path.read_text() == "rank,freq\n" + "".join(f"{u},{f}\n" for u, f in enumerate(freqs, start=1))

    @pytest.mark.parametrize("cls,dtype", [(TokenSequence, np.int64), (TokenSequence, np.uint32),
                                           (IntervalSequence, np.int32), (RankFrequency, np.int64)])
    def test_adopt_takes_only_the_fields_dtype(self, cls, dtype):
        with pytest.raises(AssertionError):
            cls._adopt(np.array([2, 1], dtype=dtype))
