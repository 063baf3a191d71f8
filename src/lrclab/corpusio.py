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
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, filterfalse
from pathlib import Path
from typing import Iterable, Iterator

from .seqcore import DataError, TokenSequence, read_text, sequence_from_surface

DEFAULT_DROP_CODES = frozenset({"xxx", "yyy", "www"})

# Characters of text held as Python strings at once while a transcript or
# token file is split; the ids of all tokens go to flat buffers.
_BLOCK_CHARS = 1 << 18
# For str patterns, re's \s is the test str.split() and str.isspace() use.
_SPACE_RE = re.compile(r"\s")
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
    drop = {c.lower() for c in drop_codes}
    codes = doc.codes
    read = total = 0

    def kept_words() -> Iterator[Iterator[str]]:
        # The selected speakers' words, block by block.
        nonlocal read, total
        for block in _blocks(doc.text, _NEWLINE_RE):
            lines = block.split("\n")
            mine = [line for code, line in zip(codes[read : read + len(lines)], lines) if code in wanted]
            read += len(lines)
            words = "\n".join(mine).lower().split()
            total += len(words)
            yield filterfalse(drop.__contains__, words)

    try:
        seq = sequence_from_surface(chain.from_iterable(kept_words()))
    except DataError:
        raise DataError("no tokens for speakers") from None
    return seq, total - seq.m


def read_tokens(text: str) -> TokenSequence:
    """Whitespace tokenization, lowercased, ids in first-occurrence order.

    The text is lowercased and split block by block, cut at whitespace.
    Lowercasing needs no context across whitespace (a final sigma is
    judged within its word), so the tokens equal text.lower().split()."""
    blocks = _blocks(text, _SPACE_RE)
    return sequence_from_surface(chain.from_iterable(block.lower().split() for block in blocks))


def read_token_file(path: str | Path) -> TokenSequence:
    text = read_text(path)
    try:
        return read_tokens(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
