import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrclab import corpusio
from lrclab.corpusio import (
    DEFAULT_DROP_CODES,
    ChatParseError,
    extract_speaker_with_stats,
    parse_chat,
    parse_chat_file,
    read_token_file,
    read_tokens,
)
from lrclab.seqcore import DataError, read_blocks, read_text, sequence_from_surface, write_token_file

DATA = Path(__file__).parent / "data"

ROMEO = "Oh Romeo Romeo wherefore art thou Romeo"


# ---------------------------------------------------------------------------
# Oracle: the per-utterance parser that cleaned each utterance on its own and
# kept one token tuple per utterance. The bulk parser must agree with it on
# every transcript, including the errors it raises, and its text must be the
# oracle's raw utterance texts cleaned all at once.
# ---------------------------------------------------------------------------

_ORACLE_TIER_RE = re.compile(r"^\*([A-Z0-9]{2,3}):[ \t]?(.*)$")
_ORACLE_BRACKETED_RE = re.compile(r"\[[^\]]*\]")
_ORACLE_TERMINATORS = frozenset(".?!")


def _oracle_clean_utterance(text):
    text = _ORACLE_BRACKETED_RE.sub(" ", text)
    text = text.replace("<", " ").replace(">", " ")
    out = []
    for tok in text.split():
        if tok.startswith("&"):
            continue
        if all(ch in _ORACLE_TERMINATORS for ch in tok):
            continue
        out.append(tok)
    return tuple(out)


def oracle_parse_chat(text):
    """(utterances as (speaker, tokens) pairs, headers, raw utterance texts)."""
    headers = []
    utterances = []
    raw_texts = []
    pending_speaker = None
    pending_text = []
    mode = None

    def flush():
        nonlocal pending_speaker, pending_text
        if pending_speaker is not None:
            raw_texts.append(" ".join(pending_text))
            utterances.append((pending_speaker, _oracle_clean_utterance(raw_texts[-1])))
        pending_speaker = None
        pending_text = []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("@"):
            flush()
            headers.append(line)
            mode = "header"
        elif line.startswith("*"):
            if ":" not in line:
                raise ChatParseError(lineno, "malformed tier line (no ':' after speaker)")
            m = _ORACLE_TIER_RE.match(line)
            if m is None:
                raise ChatParseError(lineno, "malformed tier line")
            flush()
            pending_speaker = m.group(1)
            pending_text = [m.group(2)]
            mode = "utterance"
        elif line.startswith("%"):
            flush()
            mode = "dependent"
        elif line.startswith("\t"):
            if mode == "utterance":
                pending_text.append(line.strip())
            elif mode == "dependent":
                continue
            elif mode == "header" and headers:
                headers[-1] = headers[-1] + " " + line.strip()
            else:
                raise ChatParseError(lineno, "continuation without a tier")
        else:
            raise ChatParseError(lineno, "unclassified line")
    flush()
    return tuple(utterances), tuple(headers), tuple(raw_texts)


def oracle_extract(utterances, speakers, drop_codes):
    """(kept surfaces, dropped count), lowercasing token by token."""
    wanted = {s.upper() for s in speakers}
    drop = {c.lower() for c in drop_codes}
    kept = []
    dropped = 0
    for speaker, tokens in utterances:
        if speaker not in wanted:
            continue
        for tok in tokens:
            low = tok.lower()
            if low in drop:
                dropped += 1
            else:
                kept.append(low)
    if not kept:
        raise DataError("no tokens for speakers")
    return kept, dropped


# Whitespace that str.split() and re's \s both treat as a separator, though
# only "\n" ends a line.
_SEPARATORS = (" ", "  ", "\t", "\r", "\x1c", "\x85", "\xa0", "\u2028", "\u3000")
_WORDS = (
    "ball", "Ball", "ΟΔΟΣ", "ΑΣ", "Σ", "İ", "ß", "ǅ", "xxx", "XXX", "Www", "yyy", "Doggie-doggie",
    "abcdefgh", "abcdefghi", "abcdefgΣ",
    "&", "&um", "&=laughs", "..?", ".", "?", "!", "a.", ".a", "a&", "<&x>", "<the", "ball>",
    "[?]", "[", "]", "[: doggie", "points]", "[//]", "[=", "x]y", "<", ">",
)
_word = st.one_of(st.sampled_from(_WORDS), st.text(alphabet="ab&.?!<>[]Σİ", min_size=1, max_size=4))


@st.composite
def _body(draw):
    words = draw(st.lists(_word, max_size=6))
    out = draw(st.sampled_from(("", " ", "\t")))
    for w in words:
        out += w + draw(st.sampled_from(_SEPARATORS))
    return out


@st.composite
def _line(draw, malformed):
    kinds = ["tier", "tier", "tier", "continuation", "continuation", "dependent", "header", "blank"]
    codes = ["CHI", "MOT", "AB1"]
    if malformed:
        kinds.append("bad")
        codes += ["chi", "C", "CHILD"]
    kind = draw(st.sampled_from(kinds))
    body = draw(_body())
    if kind == "tier":
        code = draw(st.sampled_from(codes))
        sep = draw(st.sampled_from(("\t", " ", "", "  ")))
        return f"*{code}:{sep}{body}"
    if kind == "continuation":
        return "\t" + body
    if kind == "dependent":
        return "%mor:\t" + body
    if kind == "header":
        return "@" + body
    if kind == "blank":
        return draw(st.sampled_from(("", " ", "\t", "\x1c", "\u3000", "\t \x85")))
    return draw(st.sampled_from(("*CHI more", "just text", " lead", "*", "\u3000x")))


@st.composite
def transcripts(draw):
    # Mostly well-formed: a malformed line ends the parse at once.
    malformed = draw(st.integers(0, 3)) == 0
    lines = draw(st.lists(_line(malformed), max_size=12))
    if draw(st.integers(0, 3)):
        lines.insert(0, "*CHI:\t" + draw(_body()))
    return "".join(ln + draw(st.sampled_from(("\n", "\r\n"))) for ln in lines)


class TestParseChat:
    def test_minimal_tier_line(self):
        doc = parse_chat("*CHI:\tmore cookie .\n")
        assert len(doc.utterances) == 1
        assert doc.utterances[0].speaker == "CHI"
        assert doc.utterances[0].tokens == ("more", "cookie")

    def test_annotation_stripping(self):
        doc = parse_chat("*MOT:\tyou want <the ball> [?] ?\n")
        assert doc.utterances[0].tokens == ("you", "want", "the", "ball")

    def test_dependent_tier_ignored(self):
        doc = parse_chat("*CHI:\tmore .\n%mor:\tqn|more .\n*CHI:\tball .\n")
        assert len(doc.utterances) == 2

    def test_continuation_extends_utterance(self):
        doc = parse_chat("*CHI:\tI like it\n\tvery much .\n")
        assert doc.utterances[0].tokens == ("I", "like", "it", "very", "much")

    def test_continuation_of_dependent_tier_ignored(self):
        doc = parse_chat("*CHI:\thi .\n%mor:\tco|hi\n\tmore-annotation\n")
        assert len(doc.utterances) == 1
        assert doc.utterances[0].tokens == ("hi",)

    def test_headers_retained(self):
        doc = parse_chat("@UTF8\n@Begin\n*CHI:\thi .\n@End\n")
        assert doc.headers == ("@UTF8", "@Begin", "@End")

    def test_fragment_tokens_stripped(self):
        doc = parse_chat("*CHI:\t&um doggie &=laughs .\n")
        assert doc.utterances[0].tokens == ("doggie",)

    def test_malformed_tier_line(self):
        with pytest.raises(ChatParseError, match="line 2"):
            parse_chat("@Begin\n*CHI more cookie .\n")

    def test_unclassified_line(self):
        with pytest.raises(ChatParseError, match="line 1"):
            parse_chat("just some text\n")

    def test_empty_utterance_allowed(self):
        doc = parse_chat("*CHI:\txxx .\n")
        assert doc.utterances[0].tokens == ("xxx",)
        doc = parse_chat("*CHI:\t.\n")
        assert doc.utterances[0].tokens == ()


class TestExtractSpeaker:
    def test_speaker_filtering(self):
        doc = parse_chat("*CHI:\tmore cookie .\n*MOT:\tyou want it ?\n*CHI:\tyes .\n")
        seq = extract_speaker_with_stats(doc, {"CHI"})[0]
        assert list(seq.surfaces()) == ["more", "cookie", "yes"]

    def test_drop_codes(self):
        doc = parse_chat("*CHI:\txxx ball .\n")
        seq, dropped = extract_speaker_with_stats(doc, {"CHI"})
        assert list(seq.surfaces()) == ["ball"]
        assert dropped == 1

    def test_lowercasing_merges_types(self):
        doc = parse_chat("*CHI:\tThe ball the Ball .\n")
        seq = extract_speaker_with_stats(doc, {"CHI"})[0]
        assert seq.symbols == ("the", "ball")
        assert seq.tokens.tolist() == [0, 1, 0, 1]

    def test_no_tokens_error(self):
        doc = parse_chat("*CHI:\txxx .\n*MOT:\tfine .\n")
        with pytest.raises(DataError, match="no tokens for speakers"):
            extract_speaker_with_stats(doc, {"CHI"})

    def test_golden_fixture(self):
        doc = parse_chat_file(DATA / "sample.cha")
        assert len(doc.headers) == 5
        assert len(doc.utterances) == 10
        seq, dropped = extract_speaker_with_stats(doc, {"CHI"})
        assert list(seq.surfaces()) == [
            "more",
            "cookie",
            "i",
            "want",
            "cookie",
            "thank",
            "you",
            "mommy",
            "where",
            "ball",
            "go",
            "doggie",
            "eat",
            "food",
        ]
        assert dropped == 3

    def test_golden_fixture_mother(self):
        doc = parse_chat_file(DATA / "sample.cha")
        seq = extract_speaker_with_stats(doc, {"MOT"})[0]
        assert list(seq.surfaces())[:4] == ["you", "want", "the", "ball"]


class TestReadTokens:
    def test_romeo_clause(self):
        seq = read_tokens(ROMEO)
        assert seq.m == 7
        assert len(set(seq.tokens.tolist())) == 5
        romeo = seq.symbols.index("romeo")
        positions = [i + 1 for i, t in enumerate(seq.tokens.tolist()) if t == romeo]
        assert positions == [2, 3, 7]

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty input"):
            read_tokens("")

    def test_whitespace_equivalence(self):
        a = read_tokens("a b\tc\nd")
        b = read_tokens("a b c d")
        assert a == b

    def test_round_trip(self, tmp_path):
        seq = read_tokens("Oh Romeo Romeo wherefore art thou Romeo")
        path = tmp_path / "tokens.txt"
        write_token_file(seq, path)
        assert read_token_file(path) == seq

    def test_file_context_in_errors(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DataError, match="empty.txt"):
            read_token_file(path)


def assert_matches_oracle(text, speakers, drop_codes):
    """parse_chat and extract_speaker_with_stats give what the oracle gives,
    errors included."""
    try:
        want = oracle_parse_chat(text)
    except ChatParseError as exc:
        with pytest.raises(ChatParseError) as got:
            parse_chat(text)
        assert str(got.value) == str(exc)
        assert got.value.line_number == exc.line_number
        return
    doc = parse_chat(text)
    try:
        kept, dropped = oracle_extract(want[0], speakers, drop_codes)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            extract_speaker_with_stats(doc, speakers, drop_codes)
        assert str(got.value) == str(exc)
    else:
        seq, n_dropped = extract_speaker_with_stats(doc, speakers, drop_codes)
        assert list(seq.surfaces()) == kept
        assert n_dropped == dropped
    assert "utterances" not in doc.__dict__
    assert tuple((u.speaker, u.tokens) for u in doc.utterances) == want[0]
    assert doc.headers == want[1]
    assert doc.text == corpusio._clean("\n".join(want[2]))
    assert doc.speakers() == {speaker for speaker, _ in want[0]}


class TestBulkCleaningMatchesOracle:
    @given(
        transcripts(),
        st.sampled_from(({"CHI"}, {"mot"}, {"CHI", "MOT", "AB1"})),
        # a code over 8 bytes, and codes that match only once lowercased
        st.sampled_from((DEFAULT_DROP_CODES, {"BALL", "&"}, {"DOGGIE-DOGGIE", "wWw"}, set())),
    )
    @settings(max_examples=400, deadline=None)
    def test_generated_transcripts(self, text, speakers, drop_codes):
        assert_matches_oracle(text, speakers, drop_codes)

    @pytest.mark.parametrize(
        "text",
        [
            # An unclosed '[' spans continuation lines of its utterance ...
            "*CHI:\tone [= points\n\tat toy] two .\n",
            # ... but never the next utterance.
            "*CHI:\tone [two\n*CHI:\tthree] four .\n",
            "*CHI:\tone [two\n%com:\tx]\n*MOT:\tthree] .\n",
            "*CHI:\tup\r\n\t \r\n\tdown [?]\r\n",
            "*CHI:\ta\x1cb\x85c\xa0d\u2028e\u3000f .\n",
            "*CHI:\tΟΔΟΣ ΑΣ\x85Σ İ ǅ .\n",
            "*CHI:\t& ..? a. <&x> &um ?!.\n",
            "*CHI:\tabcdefg abcdefgh ABCDEFGHI abcdefghijklmnopq xxx Abcdefgh\n\tabcdefghI .\n",
            "*CHI:\ta a\x00 a\x00\x00 A\x00 abcdefgΣ abcdefgİ ABCDEFGΣ .\n",
            # Tier codes of 2 and 3 characters, with and without text, and
            # malformed ones; the last has no newline.
            "*CHI:\tone\n*AB:x\n*AB1:\n*CHI:\ttwo .\n",
            "*CHI:\tone\n*ABCD:\tx\n",
            "*CHI:\tone\n*A:x\n",
            "*CHI:\tone\n*AB",
            # Lines ending in "\r\r\n" lose every "\r".
            "*CHI:\tup\r\r\n\tdown .\r\r\n%mor:\tx\r\r\n*CHI:\r\r\n",
            # A continuation whose edges are wide spaces, one after 5000
            # spaces, and a blank line of one wide space.
            "*CHI:\tone\n\t\u3000x\xa0\n\t" + " " * 5000 + "x\n\u3000\n*CHI:\ttwo\n",
            # A lone surrogate in another speaker's utterance.
            "*MOT:\t\ud800x y\ud800\n*CHI:\tok\n",
            # No tier line at all.
            "@Begin\n%com:\tnote\n\tmore\n@End\n",
            # Errors on the line just after a block cut: with small blocks,
            # and past _BLOCK_CHARS.
            "*CHI:\tone\n*BAD line\n",
            "*CHI:\tone\n*MOT:\ttwo\nstray\n",
            "*CHI:\t" + "a " * 2**17 + "\n*C\n",
            "*CHI:\t" + "a " * 2**17 + "\n*MOT:\tb\n \tstray\n",
        ],
    )
    def test_edge_cases(self, text):
        assert_matches_oracle(text, {"CHI"}, DEFAULT_DROP_CODES)

    @pytest.mark.parametrize(
        "text,drop_codes",
        [
            ("*CHI:\txxx XXX yyy .\n*MOT:\tfine .\n", DEFAULT_DROP_CODES),
            ("*CHI:\tDoggie-Doggie\n\tdoggie-DOGGIE www .\n", {"DOGGIE-DOGGIE", "wWw"}),
            ("*CHI:\t.\n*CHI:\t&um\n", DEFAULT_DROP_CODES),
        ],
    )
    def test_every_token_dropped(self, text, drop_codes):
        want = oracle_parse_chat(text)
        with pytest.raises(DataError) as oracle_error:
            oracle_extract(want[0], {"CHI"}, drop_codes)
        with pytest.raises(DataError) as got:
            extract_speaker_with_stats(parse_chat(text), {"CHI"}, drop_codes)
        assert str(got.value) == str(oracle_error.value) == "no tokens for speakers"

    def test_drop_codes_that_are_no_token(self):
        # a code holding whitespace, or empty, never equals a token
        doc = parse_chat("*CHI:\tthe ball the\n")
        seq, dropped = extract_speaker_with_stats(doc, {"CHI"}, {"the ball", "", " ", "BALL"})
        assert (list(seq.surfaces()), dropped) == (["the", "the"], 1)

    def test_extraction_builds_no_utterances(self):
        doc = parse_chat_file(DATA / "sample.cha")
        extract_speaker_with_stats(doc, {"CHI"})
        assert "utterances" not in doc.__dict__
        assert len(doc.utterances) == 10
        assert "utterances" in doc.__dict__

    def test_document_shape(self):
        doc = parse_chat("@Begin\n*CHI:\tThe [?] ball .\n%mor:\tx\n*MOT:\t&um .\n")
        assert doc.codes == ("CHI", "MOT")
        assert [line.split() for line in doc.text.split("\n")] == [["The", "ball"], []]
        assert doc.headers == ("@Begin",)


# ---------------------------------------------------------------------------
# Block edges: transcripts and token files are split in blocks of about
# corpusio._BLOCK_CHARS characters. With blocks of a few characters every
# line and word edge becomes a block edge.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class", params=[1, 2, 7])
def small_blocks(request):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpusio, "_BLOCK_CHARS", request.param)
        yield request.param


@pytest.mark.usefixtures("small_blocks")
class TestBulkCleaningAtBlockEdges(TestBulkCleaningMatchesOracle):
    pass


def read_tokens_oracle(text):
    """Lowercase and split the whole text at once."""
    return sequence_from_surface(text.lower().split())


_ALL_SPACES = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
# Tokens at the edges of the 8-byte keys: 7, 8, 9 and 17 bytes; equal but for
# trailing NUL or control bytes; a character of 2 or 3 bytes (once
# lowercased) across byte 8.
_KEY_EDGE_TOKENS = (
    "abcdefg", "abcdefgh", "ABCDEFGH", "abcdefghi", "abcdefghijklmnopq",
    "a", "a\x00", "a\x00\x00", "A\x00", "a\x01", "a\x1b", "\x00",
    "abcdefgΣ", "abcdefgİ", "ABCDEFGΣ",
)
_TOKEN_TEXT = (
    "ΟΔΟΣ\x1cΑΣ\x85Σ\u3000aΣ\r\nΣa ΣΣ\tİx\r\nǅ "
    + "Σ".join(_ALL_SPACES)
    + "Σ"
    + "aΣ".join(_ALL_SPACES)
    + " ".join(_KEY_EDGE_TOKENS * 2)
)


@pytest.mark.usefixtures("small_blocks")
class TestReadTokensAtBlockEdges:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(("Σ", "aΣ", "ΑΣ", "Σa", "İ", "ǅ", "x", "\r\n", "\x1c", "\x85", "\u3000", " ")),
                st.sampled_from(_ALL_SPACES),
                st.sampled_from(_KEY_EDGE_TOKENS),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_generated_text(self, parts):
        text = "".join(parts)
        if not text.split():
            with pytest.raises(DataError, match="empty input"):
                read_tokens(text)
            return
        assert read_tokens(text) == read_tokens_oracle(text)

    def test_every_separator_at_an_edge(self):
        assert read_tokens(_TOKEN_TEXT) == read_tokens_oracle(_TOKEN_TEXT)


def test_space_pattern_is_str_split_whitespace():
    """Blocks are cut where re's \\s matches; str.split() must cut there too."""
    matched = "".join(corpusio._SPACE_RE.findall("".join(map(chr, range(0x110000)))))
    assert matched == _ALL_SPACES


def test_wide_spaces_are_str_split_whitespace():
    """The factorizer finds ASCII whitespace in the bytes and turns the rest,
    listed in the module, into spaces first."""
    assert len(corpusio._WIDE_SPACES) == len(set(corpusio._WIDE_SPACES))
    assert set(corpusio._WIDE_SPACES) == {c for c in map(chr, range(0x110000)) if c.isspace() and ord(c) > 127}
    ascii_spaces = {c for c in _ALL_SPACES if ord(c) <= 127}
    assert ascii_spaces == set(map(chr, [*range(9, 14), *range(28, 33)]))


@pytest.mark.parametrize("block_chars", [64, 1 << 18])
def test_many_types_grow_the_table(monkeypatch, block_chars):
    # about 6000 types, short and long, over several doublings of the
    # table, in blocks that each bring new types and repeat old ones
    monkeypatch.setattr(corpusio, "_BLOCK_CHARS", block_chars)
    rng = np.random.default_rng(5)
    stems = [f"w{i}" for i in range(4000)] + [f"Word{i}-{'x' * (i % 13)}" for i in range(2000)]
    picks = rng.zipf(1.3, 30_000) % len(stems)
    text = "\n".join(stems[i] for i in picks.tolist()) + "\n"
    seq = read_tokens(text)
    assert seq == read_tokens_oracle(text)
    assert len(seq.symbols) > 2048


def test_readers_bypass_sequence_from_surface(monkeypatch):
    """The readers use the factorizer, so the oracle comparisons above do not
    compare sequence_from_surface with itself."""
    def fail(surfaces):
        raise AssertionError("sequence_from_surface called")

    monkeypatch.setattr(corpusio, "sequence_from_surface", fail)
    assert read_tokens(ROMEO).symbols == ("oh", "romeo", "wherefore", "art", "thou")
    seq, dropped = extract_speaker_with_stats(parse_chat("*CHI:\txxx Ball ball .\n"), {"CHI"})
    assert (seq.symbols, dropped) == (("ball",), 1)


# ---------------------------------------------------------------------------
# Files read a block at a time: read_blocks reads corpusio._BLOCK_CHARS
# characters at a time, so with small blocks every chunk edge falls inside a
# line, a word or a line end. The file readers must give what the text
# readers give on read_text's text of the same file.
# ---------------------------------------------------------------------------


def blocks_oracle(text, sep, size):
    """The cut over the whole text at once, as _blocks made it before it
    shared split_blocks with the file reader."""
    pos = 0
    while len(text) - pos > size:
        m = sep.search(text, pos + size)
        if m is None:
            break
        yield text[pos : m.start()]
        pos = m.end()
    yield text[pos:]


def assert_file_reads_match(path):
    text = read_text(path)
    size = corpusio._BLOCK_CHARS
    for sep in (corpusio._TIER_CUT_RE, corpusio._SPACE_RE, corpusio._NEWLINE_RE):
        want = list(blocks_oracle(text, sep, size))
        assert list(corpusio._blocks(text, sep)) == want
        assert list(read_blocks(path, sep, size)) == want
    try:
        doc = parse_chat(text)
    except ChatParseError as exc:
        with pytest.raises(ChatParseError) as got:
            parse_chat_file(path)
        assert (str(got.value), got.value.line_number) == (str(exc), exc.line_number)
    else:
        got = parse_chat_file(path)
        assert (got.codes, got.text, got.headers) == (doc.codes, doc.text, doc.headers)
    try:
        seq = read_tokens(text)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_token_file(path)
        assert str(got.value) == f"{path}: {exc}"
    else:
        assert read_token_file(path) == seq


@st.composite
def _file_bytes(draw, texts):
    """A text of `texts` with each "\\n" made "\\n", "\\r\\n" or a lone "\\r",
    maybe after a BOM, as UTF-8."""
    text = draw(texts)
    ends = iter(draw(st.lists(st.sampled_from(("\n", "\r\n", "\r")),
                              min_size=text.count("\n"), max_size=text.count("\n"))))
    text = re.sub("\n", lambda _: next(ends), text)
    return (draw(st.sampled_from(("", "\ufeff"))) + text).encode()


_token_texts = st.lists(
    st.one_of(
        st.sampled_from(("Σ", "aΣ", "ΑΣ", "İ", "ǅ", "x", "\n", " ", "\t", "y" * 25)),
        st.sampled_from(corpusio._WIDE_SPACES),
        st.sampled_from(_KEY_EDGE_TOKENS),
    ),
    max_size=30,
).map("".join)


@pytest.fixture(scope="class", params=[1, 2, 3, 7, 20, 1 << 18])
def read_blocks_of(request):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpusio, "_BLOCK_CHARS", request.param)
        yield request.param


@pytest.fixture(scope="class")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@pytest.mark.usefixtures("read_blocks_of")
class TestFilesReadInBlocks:
    @given(st.one_of(_file_bytes(transcripts()), _file_bytes(_token_texts)))
    @settings(max_examples=150, deadline=None)
    def test_generated_files(self, work, content):
        path = work / "input.txt"
        path.write_bytes(content)
        assert_file_reads_match(path)

    def test_edge_cases(self, work, read_blocks_of):
        size = read_blocks_of
        edge = 2 * size  # a line end that closes the second chunk, its "*" opening the third
        cases = [
            b"",
            b"abc" * 10,  # no separator of any kind
            b"x" * (size + 5) + b" y\n",  # a token longer than a block
            b"*CHI:\t" + b"a" * (size + 5) + b"\n*MOT:\tb\n",
            # a tier line that starts exactly at a chunk edge, after "\n" and after "\r\n"
            b"@" + b"x" * (edge - 2) + b"\n*CHI:\tone two\n*MOT:\tthree .\n",
            b"@" + b"x" * (edge - 2) + b"\r\n*CHI:\tone two\r\n*MOT:\tthree .\r\n",
            "\ufeff*CHI:\tΟΔΟΣ\u3000ΑΣ\x85Σ\r*MOT:\tİ ǅ\r".encode(),
        ]
        for content in cases:
            path = work / "edge.txt"
            path.write_bytes(content)
            assert_file_reads_match(path)

    def test_read_errors(self, work, read_blocks_of):
        """A missing file, a directory and a bad byte past the first chunk
        (and past the 8 KB the text layer decodes at once) raise read_text's
        DataError, the byte's position counted from the start of the file."""
        bad = work / "bad.txt"
        bad.write_bytes(b"ab\n" * (max(read_blocks_of, 8192) // 3 + 10) + b"caf\xe9\n")
        for path in (work / "missing.txt", work, bad):
            with pytest.raises(DataError) as want:
                read_text(path)
            readers = (parse_chat_file, read_token_file,
                       lambda p: list(read_blocks(p, corpusio._SPACE_RE, read_blocks_of)))
            for reader in readers:
                with pytest.raises(DataError) as got:
                    reader(path)
                assert str(got.value) == str(want.value)
