"""Ingestion of plain token files and a documented subset of the CHAT
transcript format used by child-speech corpora such as CHILDES.

Only the tier-line structure is parsed: speaker lines, tab-indented
continuations, header lines, and dependent annotation tiers. Inline
annotations are stripped, not interpreted. Surface forms are lowercased
before id assignment so capitalization never splits a type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .seqcore import DataError, TokenSequence, sequence_from_surface

DEFAULT_DROP_CODES = frozenset({"xxx", "yyy", "www"})

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
    pieces: list[str] = []
    mode: str | None = None  # "utterance" | "dependent" | "header"

    for lineno, raw in enumerate(text.split("\n"), start=1):
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
            codes.append(m.group(1))
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
    return ChatDocument(tuple(codes), _clean("".join(pieces[1:])), tuple(headers))


def parse_chat_file(path: str | Path) -> ChatDocument:
    return parse_chat(Path(path).read_text(encoding="utf-8"))


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
    lines = doc.text.split("\n")
    words = "\n".join([line for code, line in zip(doc.codes, lines) if code in wanted]).lower().split()
    kept = [w for w in words if w not in drop]
    if not kept:
        raise DataError("no tokens for speakers")
    return sequence_from_surface(kept), len(words) - len(kept)


def extract_speaker(
    doc: ChatDocument,
    speakers: Iterable[str],
    drop_codes: Iterable[str] = DEFAULT_DROP_CODES,
) -> TokenSequence:
    return extract_speaker_with_stats(doc, speakers, drop_codes)[0]


def read_tokens(text: str) -> TokenSequence:
    """Whitespace tokenization, lowercased, ids in first-occurrence order."""
    tokens = text.lower().split()
    if not tokens:
        raise DataError("empty input")
    return sequence_from_surface(tokens)


def read_token_file(path: str | Path) -> TokenSequence:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return read_tokens(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
