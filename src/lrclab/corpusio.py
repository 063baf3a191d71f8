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

# sequence_from_surface is not called here: it is the reference the tests
# compare the readers with. perfbench/spans.py looks it up on this module by
# name to trace it, so the import must stay.
from .seqcore import DataError, TokenSequence, id_dtype, read_text, sequence_from_surface  # noqa: F401

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

_TIER_RE = re.compile(r"^\*([A-Z0-9]{2,3}):[ \t]?(.*)$")
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
    """Cut text at matches of the one-character pattern `sep`, each the
    first at least _BLOCK_CHARS past the previous cut. The separators at
    the cuts are left out: joined with them, the blocks give back text."""
    pos = 0
    while len(text) - pos > _BLOCK_CHARS:
        m = sep.search(text, pos + _BLOCK_CHARS)
        if m is None:
            break
        yield text[pos : m.start()]
        pos = m.end()
    yield text[pos:]


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
        # whitespace is bytes 9-13 and 28-32; the text has some before and after
        shifted = raw - 9
        space = shifted < 5
        np.subtract(raw, 28, out=shifted)
        space |= shifted < 5
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


def parse_chat(text: str) -> ChatDocument:
    """Parse CHAT-style transcript text.

    Lines starting '@' are headers (kept verbatim), '*SPK:' starts an
    utterance by SPK, '%' starts a dependent tier (ignored along with its
    continuations), and tab-indented lines continue the preceding tier.
    Any other non-blank line raises a located error.
    """
    headers: list[str] = []
    codes: list[str] = []
    # Raw utterance text: "\n" opens each utterance, " " each continuation.
    # Each block's pieces are joined before the next block is split.
    joined: list[str] = []
    mode: str | None = None  # "utterance" | "dependent" | "header"
    intern = sys.intern  # one string per speaker code, not per utterance

    lineno = 0
    for block in _blocks(text, _NEWLINE_RE):
        pieces: list[str] = []
        for raw in block.split("\n"):
            lineno += 1
            line = raw.rstrip("\r")
            if not line.strip():
                continue
            first = line[0]
            if first == "@":
                headers.append(line)
                mode = "header"
            elif first == "*":
                m = _TIER_RE.match(line)
                if m is None:
                    if ":" not in line:
                        raise ChatParseError(lineno, "malformed tier line (no ':' after speaker)")
                    raise ChatParseError(lineno, "malformed tier line")
                codes.append(intern(m.group(1)))
                pieces += ("\n", m.group(2))
                mode = "utterance"
            elif first == "%":
                mode = "dependent"
            elif first == "\t":
                if mode == "utterance":
                    pieces += (" ", line.strip())
                elif mode == "dependent":
                    continue
                elif mode == "header" and headers:
                    headers[-1] = headers[-1] + " " + line.strip()
                else:
                    raise ChatParseError(lineno, "continuation without a tier")
            else:
                raise ChatParseError(lineno, "unclassified line")
        joined.append("".join(pieces))
    # An annotation may cross a block edge, so the cleaning sees all
    # utterances at once. The first utterance's "\n" is dropped last.
    return ChatDocument(tuple(codes), _clean("".join(joined))[1:], tuple(headers))


def parse_chat_file(path: str | Path) -> ChatDocument:
    return parse_chat(read_text(path))


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
    factorizer = _Factorizer()
    for block in _blocks(text, _SPACE_RE):
        factorizer.add(block)
    return factorizer.sequence()


def read_token_file(path: str | Path) -> TokenSequence:
    text = read_text(path)
    try:
        return read_tokens(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
