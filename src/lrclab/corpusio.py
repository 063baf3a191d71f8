"""Ingestion of plain token files and a documented subset of the CHAT
transcript format used by child-speech corpora such as CHILDES.

Only the tier-line structure is parsed: speaker lines, tab-indented
continuations, header lines, and dependent annotation tiers. Inline
annotations are stripped, not interpreted. Surface forms are lowercased
before id assignment so capitalization never splits a type.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .seqcore import DataError, TokenSequence, id_dtype, read_blocks, split_blocks

# sequence_from_surface is not called here: it is the reference the tests
# compare the readers with. perfbench/spans.py looks it up on this module by
# name to trace it, so the import must stay.
from .seqcore import sequence_from_surface  # noqa: F401

DEFAULT_DROP_CODES = frozenset({"xxx", "yyy", "www"})

# Characters of text held as Python strings at once while a transcript or
# token file is split; the ids of all tokens go to flat buffers.
_BLOCK_CHARS = 1 << 18
# For str patterns, re's \s is the test str.split() and str.isspace() use.
_SPACE_RE = re.compile(r"\s")
# The code points above U+007F that str.split() treats as whitespace. The
# others are the ASCII bytes 9-13 and 28-32, which the UTF-8 scan tests.
_WIDE_SPACES = (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)
_NEWLINE_RE = re.compile("\n")

# One annotation per match; it never crosses "\n", so it ends within its
# utterance.
_BRACKETED_RE = re.compile(r"\[[^\]\n]*\]")
# A whole whitespace-delimited token that starts with '&' or consists of
# terminators only. The pattern opens with a character class, which lets re
# skip ahead to candidates; the lookbehind then requires that the matched
# character starts its token.
_DROPPED_TOKEN_RE = re.compile(
    r"""[&.?!](?<!\S.)      # first character of a token
        (?: (?<=&)\S*       # an '&' fragment, to the end of the token
          | [.?!]*(?!\S) )  # or terminators only, to the end of the token
    """,
    re.VERBOSE,
)


class ChatParseError(DataError):
    """A transcript line that cannot be classified, with its line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Utterance:
    speaker: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class ChatDocument:
    """Speaker-attributed utterances plus the raw header lines.

    `codes` holds the speaker code of each utterance and `text` its cleaned
    words, one line per utterance in document order. `utterances` builds
    one `Utterance` per line, on first access only.
    """

    codes: tuple[str, ...]
    text: str
    headers: tuple[str, ...]

    @cached_property
    def utterances(self) -> tuple[Utterance, ...]:
        lines = self.text.split("\n")
        return tuple(Utterance(code, tuple(line.split())) for code, line in zip(self.codes, lines))

    def speakers(self) -> set[str]:
        return set(self.codes)


def _blocks(text: str, sep: re.Pattern) -> Iterator[str]:
    """Text cut at matches of the one-character pattern `sep`, each the
    first at least _BLOCK_CHARS past the previous cut, as `split_blocks`
    cuts it; the files are cut the same way as they are read."""
    return split_blocks((text,), sep, _BLOCK_CHARS)


# The ASCII whitespace of str.isspace(): bytes 9-13 and 28-32.
_ASCII_SPACES = bytes(range(9, 14)) + bytes(range(28, 33))


def _ascii_space(raw: np.ndarray) -> np.ndarray:
    """Whether each byte is in _ASCII_SPACES."""
    shifted = raw - 9
    space = shifted < 5
    np.subtract(raw, 28, out=shifted)
    space |= shifted < 5
    return space


def _skip_spaces(data: bytes, space: np.ndarray, pos: np.ndarray, stop: np.ndarray, step: int) -> np.ndarray:
    """Each position moved by `step` (1 or -1) toward its stop while it
    passes over ASCII whitespace: with step 1 the byte at the position, with
    step -1 the byte before it. A few steps go for all positions at once;
    longer runs of whitespace are stripped as bytes."""
    pos = pos.copy()
    todo = np.flatnonzero(pos != stop)
    for _ in range(8):
        if not todo.size:
            return pos
        todo = todo[space[pos[todo] - (step < 0)]]
        pos[todo] += step
        todo = todo[pos[todo] != stop[todo]]
    for j in todo.tolist():
        if step > 0:
            run = data[pos[j] : stop[j]]
            pos[j] += len(run) - len(run.lstrip(_ASCII_SPACES))
        else:
            run = data[stop[j] : pos[j]]
            pos[j] -= len(run) - len(run.rstrip(_ASCII_SPACES))
    return pos


# Keys of tokens: the UTF-8 bytes of a token of up to 8 bytes, padded with
# spaces, read as one little-endian uint64. No token holds byte 0x20, so the
# key is exact. A longer token's key is (its index in a dict of long tokens)
# << 8 | 0x20: its low byte, the first byte of a short token, is a space.
# These are plain ints: with even a small numpy array made at import, parsing
# an 11 MB transcript afterwards peaked 0.3 MB higher.
_SPACES8 = b"        "
_PAD_KEY = int.from_bytes(_SPACES8, "little")
_EMPTY = 2**64 - 1  # no key: UTF-8 has no byte 0xff
_FIB = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, odd


class _Factorizer:
    """Ids in first-occurrence order for the whitespace tokens of text
    blocks, lowercased, with the tokens in `drop` left out and counted:
    `add` each block, then take the `sequence` once.

    Each block's tokens are keyed (see _PAD_KEY) and looked up in an
    open-addressing table of keys and ids: multiplicative hash, linear
    probing, at most half full, doubled and refilled when it fills. A
    block's new keys take the next ids in the order of their first
    occurrence, so no array of all the tokens' keys is built or sorted.
    The symbols are read back from the keys in the table."""

    def __init__(self, drop: Iterable[str] = ()) -> None:
        self._long: dict[bytes, int] = {}  # a token over 8 bytes -> its key
        self._n = 0  # ids issued
        self._slot_keys = np.empty(0, dtype=np.uint64)
        self._slot_ids = np.empty(0, dtype=np.int32)  # -1 in an empty slot
        self._grow(1 << 10)
        self._ids = array("i")  # int32: ids of the kept tokens
        self.dropped = 0
        keep = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # a key's first n bytes
        self._keep, self._pad = keep, ~keep & np.uint64(_PAD_KEY)  # and spaces past them
        words = (code.lower() for code in drop)
        self._drop = np.array([self._key(w.encode()) for w in words if w.split() == [w]], dtype=np.uint64)

    def _key(self, token: bytes) -> int:
        if len(token) > 8:
            return self._long.setdefault(token, len(self._long) << 8 | 0x20)
        return int.from_bytes(token.ljust(8, b" "), "little")

    def _grow(self, size: int) -> None:
        """Make the table `size` slots, a power of two, and refill it."""
        held = self._slot_ids >= 0
        keys, ids = self._slot_keys[held], self._slot_ids[held]
        self._slot_keys = np.full(size, _EMPTY, dtype=np.uint64)
        self._slot_ids = np.full(size, -1, dtype=np.int32)
        self._shift = 65 - size.bit_length()
        self._slot_ids[self._slots(keys, claim=True)] = ids

    def _slots(self, keys: np.ndarray, claim: bool) -> np.ndarray:
        """The slot of each key. A key not in the table gets the empty slot
        that ends its probe, which it claims if `claim` is set: a key moves
        on only past slots that hold another key, and of the keys that reach
        one empty slot together, exactly one takes it."""
        table = self._slot_keys
        slots = ((keys * _FIB) >> self._shift).astype(np.intp)
        todo, probe, wanted = None, slots, keys
        while True:
            at = table[probe]
            free = at == _EMPTY
            if claim:
                table[probe[free]] = wanted[free]
                at[free] = table[probe[free]]
                busy = at != wanted
            else:
                busy = ~free & (at != wanted)
            more = np.flatnonzero(busy)
            if not more.size:
                return slots
            todo = more if todo is None else todo[more]
            probe = (slots[todo] + 1) & (table.size - 1)
            slots[todo] = probe
            wanted = keys[todo]

    def add(self, block: str) -> None:
        keys = self._keys_of(block)
        if self._drop.size:
            kept = ~np.isin(keys, self._drop)
            self.dropped += keys.size - int(np.count_nonzero(kept))
            keys = keys[kept]
        self._ids.frombytes(self._id_of(keys).data.cast("B"))

    def _keys_of(self, block: str) -> np.ndarray:
        """The key of each token of the block, lowercased."""
        low = block.lower()
        if not low.isascii():
            for space in _WIDE_SPACES:
                low = low.replace(space, " ")
        data = b" " + low.encode() + _SPACES8
        raw = np.frombuffer(data, dtype=np.uint8)
        space = _ascii_space(raw)  # the text has some before and after
        edges = np.flatnonzero(space[1:] != space[:-1])
        edges += 1
        starts, ends = edges[0::2], edges[1::2]
        lengths = ends - starts
        # the 8 bytes from each start, with the bytes past the token made spaces
        keys = np.ndarray((raw.size - 7,), dtype="<u8", buffer=data, strides=(1,))[starts]
        long = np.flatnonzero(lengths > 8)
        np.minimum(lengths, 8, out=lengths)
        keys &= self._keep.take(lengths)
        keys |= self._pad.take(lengths)
        if long.size:
            keys[long] = [self._key(data[a:b]) for a, b in zip(starts[long].tolist(), ends[long].tolist())]
        return keys

    def _id_of(self, keys: np.ndarray) -> np.ndarray:
        ids = self._slot_ids[self._slots(keys, claim=False)]
        new = np.flatnonzero(ids < 0)
        if new.size:
            while self._n + new.size >= self._slot_keys.size:  # a free slot for each, and one more
                self._grow(2 * self._slot_keys.size)
            # The slot of each new key takes the least index, among the
            # block's new tokens, of a token with that key: its first.
            at = self._slots(keys[new], claim=True)
            order = np.arange(new.size, dtype=np.int32)
            self._slot_ids[at] = new.size
            np.minimum.at(self._slot_ids, at, order)
            first = self._slot_ids[at] == order
            fresh = int(np.count_nonzero(first))
            if self._n + fresh > 2**31 - 1:
                raise OverflowError("more than 2**31 - 1 types")
            self._slot_ids[at[first]] = np.arange(self._n, self._n + fresh, dtype=np.int32)
            self._n += fresh
            ids[new] = self._slot_ids[at]
            while 2 * self._n > self._slot_keys.size:  # at most half full
                self._grow(2 * self._slot_keys.size)
        return ids

    def _symbols(self) -> tuple[str, ...]:
        """The token of each id: the key's bytes up to its padding, or the
        long token it indexes. Frees the table."""
        held = self._slot_ids >= 0
        keys = np.empty(self._n, dtype=np.uint64)
        keys[self._slot_ids[held]] = self._slot_keys[held]
        del self._slot_keys, self._slot_ids  # the table is done with
        short = (keys & 0xFF) != 0x20
        # No token holds whitespace: with a space after each key's 8 bytes,
        # one split gives the short tokens back in id order.
        table = np.full((int(np.count_nonzero(short)), 9), 0x20, dtype=np.uint8)
        table[:, :8] = keys[short].astype("<u8").view(np.uint8).reshape(-1, 8)
        words = str(table, "utf-8").split()
        if short.all():
            return tuple(words)
        longs = list(self._long)
        shorts = iter(words)
        return tuple(
            longs[int(k) >> 8].decode() if (k & 0xFF) == 0x20 else next(shorts) for k in keys.tolist()
        )

    def sequence(self) -> TokenSequence:
        tokens = np.frombuffer(self._ids, dtype=np.int32)
        # widened only from 2**31 tokens on
        return TokenSequence._adopt(tokens.astype(id_dtype(tokens.size), copy=False), symbols=self._symbols())


def _clean(text: str) -> str:
    """Blank out bracketed annotations, angle-bracket scope markers,
    fragment tokens starting with '&', and terminal punctuation tokens.
    Line breaks are kept, so each utterance stays on its own line."""
    text = _BRACKETED_RE.sub(" ", text)
    text = text.replace("<", " ").replace(">", " ")
    return _DROPPED_TOKEN_RE.sub("", text)


# The tier mode a line sets, by its first byte: '*' an utterance, '%' a
# dependent tier, '@' a header. A tab-indented line continues the mode
# before it; 0 is no tier yet.
_UTTERANCE, _DEPENDENT, _HEADER = 1, 2, 3
# One entry per byte value: whether it is a speaker code character [A-Z0-9].
_CODE_BYTES = bytes(c in b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" for c in range(256))
_TIER_CUT_RE = re.compile(r"\n(?=\*)")


class _ChatReader:
    """The codes, cleaned utterance text and headers of a transcript, read
    one block at a time: `add` each block, cut just before a tier line, then
    take the `document` once.

    A block is classified in numpy over its UTF-8 bytes: each line's first
    byte gives its kind, the tier mode is carried down the lines with a
    running maximum, and the utterances' bytes are gathered with one mask. Only
    headers, header continuations, lines that may start or end in a Unicode
    space (a byte of 0x80 or above at an edge) and lines with more than 8
    spaces at an edge take a Python step. The first bad line raises the
    ChatParseError, line number and message, of a line-by-line parse. No
    utterance crosses a cut, so each block is cleaned on its own."""

    def __init__(self) -> None:
        self._headers: list[str] = []
        self._pieces: list[str] = []  # each block's cleaned text, "\n" before every utterance but the first
        self._keys: list[np.ndarray] = []  # each utterance's code, b1 << 16 | b2 << 8 | (b3 or 0)
        self._utterances = 0
        self._lines = 0  # in the blocks before

    def add(self, block: str) -> None:
        data = block.encode("utf-8", "surrogatepass")
        n = len(data)
        # Padded with bytes 0, neither code nor space, so that a tier line's
        # code may be read past the end of the block.
        raw = np.frombuffer(data + bytes(8), dtype=np.uint8)
        newlines = np.flatnonzero(raw[:n] == 0x0A)
        starts = np.concatenate(([0], newlines + 1))
        ends = np.append(newlines, n)
        first = raw[starts]
        tier, header = first == 0x2A, first == 0x40
        sets = tier * _UTTERANCE + (first == 0x25) * _DEPENDENT + header * _HEADER
        # A line that sets a mode marks 4 * (its number) + the mode, so the
        # running maximum holds the mark of the last such line. Every block
        # but the first starts with a tier line, so no mode carries over.
        marks = np.where(sets > 0, 4 * np.arange(1, starts.size + 1) + sets, 0)
        mode = np.maximum.accumulate(marks) & 3

        # Every other line is blank or, stripped as by str.strip(), the bytes
        # [text_lo, text_hi).
        loose = np.flatnonzero(sets == 0)
        lo, hi = starts[loose], ends[loose]
        space = _ascii_space(raw)
        text_lo = _skip_spaces(data, space, lo, hi, 1)
        text_hi = _skip_spaces(data, space, hi, text_lo, -1)
        blank = text_lo == hi
        for j in np.flatnonzero(~blank & ((raw[text_lo] >= 0x80) | (raw[text_hi - 1] >= 0x80))).tolist():
            line = data[lo[j] : hi[j]].decode("utf-8", "surrogatepass")
            if not line.strip():
                blank[j] = True
                continue
            lead, trail = line[: len(line) - len(line.lstrip())], line[len(line.rstrip()) :]
            text_lo[j] = lo[j] + len(lead.encode("utf-8", "surrogatepass"))
            text_hi[j] = hi[j] - len(trail.encode("utf-8", "surrogatepass"))
        tab = first[loose] == 0x09
        loose_mode = mode[loose]

        # A tier line is '*', 2 or 3 code characters and ':'. Its text
        # follows one optional space or tab and ends before any last '\r's.
        at = starts[tier]
        code = np.frombuffer(_CODE_BYTES, dtype=bool)
        b1, b2, b3, b4 = raw[at + 1], raw[at + 2], raw[at + 3], raw[at + 4]
        two = code[b1] & code[b2] & (b3 == 0x3A)
        malformed = ~two & ~(code[b1] & code[b2] & code[b3] & (b4 == 0x3A))
        stray = ~blank & (~tab | (loose_mode == 0))
        bad = np.concatenate((np.flatnonzero(tier)[malformed], loose[stray]))
        if bad.size:
            i = int(bad.min())
            if tier[i]:
                message = "malformed tier line"
                if b":" not in data[starts[i] : ends[i]]:
                    message += " (no ':' after speaker)"
            else:
                message = "continuation without a tier" if first[i] == 0x09 else "unclassified line"
            raise ChatParseError(self._lines + i + 1, message)
        self._lines += starts.size

        tier_lo = at + np.where(two, 4, 5)
        tier_lo += (raw[tier_lo] == 0x20) | (raw[tier_lo] == 0x09)
        tier_hi = ends[tier]
        while (cr := np.flatnonzero(raw[tier_hi - 1] == 0x0D)).size:
            tier_hi[cr] -= 1
        continued = ~blank & tab
        cont = continued & (loose_mode == _UTTERANCE)
        cont_lo, cont_hi = text_lo[cont], text_hi[cont]
        # Each kept run of bytes starts one byte early, with its separator
        # written there: "\n" before an utterance, " " before a continuation.
        # The runs are disjoint, so the sorted edges alternate start and end.
        utter = raw[:n].copy()
        utter[tier_lo - 1] = 0x0A
        utter[cont_lo - 1] = 0x20
        edges = np.sort(np.concatenate((tier_lo - 1, tier_hi, cont_lo - 1, cont_hi)))
        keep = np.repeat(np.arange(edges.size + 1) % 2 == 1, np.diff(edges, prepend=0, append=n))
        piece = _clean(utter[keep].tobytes().decode("utf-8", "surrogatepass"))
        self._pieces.append(piece if self._utterances else piece[1:])
        self._keys.append(b1.astype(np.int32) << 16 | b2.astype(np.int32) << 8 | np.where(two, 0, b3))
        self._utterances += at.size

        heading = header.copy()
        heading[loose[continued & (loose_mode == _HEADER)]] = True
        for i in np.flatnonzero(heading).tolist():
            line = data[starts[i] : ends[i]].decode("utf-8", "surrogatepass")
            if header[i]:
                self._headers.append(line.rstrip("\r"))
            else:
                self._headers[-1] += " " + line.strip()

    def document(self) -> ChatDocument:
        # Each distinct code is decoded and interned once. (np.unique would
        # import numpy.ma, about 1 MB, on its first call in a process.)
        keys = np.concatenate(self._keys)
        ordered = np.sort(keys)
        distinct = ordered[np.diff(ordered, prepend=-1) != 0]
        names = [sys.intern(key.to_bytes(3, "big").rstrip(b"\0").decode()) for key in distinct.tolist()]
        codes = tuple(map(names.__getitem__, np.searchsorted(distinct, keys).tolist()))
        return ChatDocument(codes, "".join(self._pieces), tuple(self._headers))


def parse_chat(text: str) -> ChatDocument:
    """Parse CHAT-style transcript text.

    Lines starting '@' are headers (kept verbatim), '*SPK:' starts an
    utterance by SPK, '%' starts a dependent tier (ignored along with its
    continuations), and tab-indented lines continue the preceding tier.
    Any other non-blank line raises a located error.
    """
    return _parse(_blocks(text, _TIER_CUT_RE))


def parse_chat_file(path: str | Path) -> ChatDocument:
    """parse_chat of a transcript file, read a block at a time."""
    return _parse(read_blocks(path, _TIER_CUT_RE, _BLOCK_CHARS))


def _parse(blocks: Iterable[str]) -> ChatDocument:
    reader = _ChatReader()
    for block in blocks:
        reader.add(block)
    return reader.document()


def extract_speaker_with_stats(
    doc: ChatDocument,
    speakers: Iterable[str],
    drop_codes: Iterable[str] = DEFAULT_DROP_CODES,
) -> tuple[TokenSequence, int]:
    """Concatenate the tokens of the selected speakers in document order,
    lowercased, dropping unknown-word codes. Returns the sequence and the
    number of dropped code tokens."""
    wanted = {s.upper() for s in speakers}
    if not wanted:
        raise DataError("no speakers requested")
    factorizer = _Factorizer(drop_codes)
    codes = doc.codes
    read = 0
    # The selected speakers' lines, block by block.
    for block in _blocks(doc.text, _NEWLINE_RE):
        lines = block.split("\n")
        mine = (line for code, line in zip(codes[read : read + len(lines)], lines) if code in wanted)
        factorizer.add("\n".join(mine))
        read += len(lines)
    try:
        seq = factorizer.sequence()
    except DataError:
        raise DataError("no tokens for speakers") from None
    return seq, factorizer.dropped


def read_tokens(text: str) -> TokenSequence:
    """Whitespace tokenization, lowercased, ids in first-occurrence order.

    The text is lowercased and split block by block, cut at whitespace.
    Lowercasing needs no context across whitespace (a final sigma is
    judged within its word), so the tokens equal text.lower().split()."""
    return _tokens(_blocks(text, _SPACE_RE))


def read_token_file(path: str | Path) -> TokenSequence:
    """read_tokens of a token file, read a block at a time. A file with no
    tokens raises DataError "<path>: empty input"."""
    return _tokens(read_blocks(path, _SPACE_RE, _BLOCK_CHARS), source=path)


def _tokens(blocks: Iterable[str], source: str | Path | None = None) -> TokenSequence:
    """The sequence of the blocks' tokens. A DataError in making it is
    prefixed with "<source>: " when a source is named; one raised while
    the blocks are read passes unchanged."""
    factorizer = _Factorizer()
    for block in blocks:
        factorizer.add(block)
    try:
        return factorizer.sequence()
    except DataError as exc:
        if source is None:
            raise
        raise DataError(f"{source}: {exc}") from exc
