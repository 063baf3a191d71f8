"""Seeded synthetic CHAT transcript with recorded ground truth.

The transcript exercises every construct `lrclab.corpusio` handles: two
speakers (CHI, MOT), tab-indented continuation lines, `%mor` and `%com`
dependent tiers (with their own continuations), `[...]` annotations,
`<...>` scope markers, `&` fragments, terminator tokens and the
`xxx`/`yyy`/`www` unknown-word codes. While it writes the text the
generator counts, per speaker, the word tokens a correct parser keeps and
the code tokens it drops, so the benchmark can check the extraction
exactly.

Word choice mixes a global Zipf draw with words of a slowly changing
conversation topic, so the rarest words cluster in time and the child's
token stream carries a positive interval autocorrelation that shuffling
destroys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEXICON_SIZE = 20000
TOPIC_WORDS = 40
TOPIC_SHARE = 0.35
TOPIC_SWITCH = 0.02
ZIPF_EXPONENT = 1.0
WORDS_PER_LINE = 10
CODES = ("xxx", "yyy", "www")
FRAGMENTS = ("&uh", "&um", "&+th", "&=laughs")
ANNOTATIONS = ("[/]", "[//]", "[*]", "[?]", "[!]", "[= points at toy]", "[: doggie]", "[% whispers]")
TERMINATORS = (".", "?", "!")

# Letters x, y and w never occur in a lexicon word, so no word collides with
# an unknown-word code.
_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _ONSETS for v in _VOWELS]


def _word(index: int) -> str:
    """Distinct pronounceable surface form for a lexicon index."""
    n = len(_SYLLABLES)
    parts = [_SYLLABLES[index % n]]
    index //= n
    while index:
        index -= 1
        parts.append(_SYLLABLES[index % n])
        index //= n
    return "".join(parts)


LEXICON = tuple(_word(i) for i in range(LEXICON_SIZE))


@dataclass(frozen=True)
class TranscriptTruth:
    """What a correct parser must report for the generated transcript."""

    kept: dict[str, int]
    dropped: dict[str, int]


def _zipf_cdf() -> np.ndarray:
    weights = np.arange(1, LEXICON_SIZE + 1, dtype=np.float64) ** (-ZIPF_EXPONENT)
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _layout(tier: str, chunks: list[str]) -> list[str]:
    """Lay chunks out as one tier line plus tab-indented continuations."""
    lines = []
    for start in range(0, len(chunks), WORDS_PER_LINE):
        body = " ".join(chunks[start : start + WORDS_PER_LINE])
        lines.append((f"{tier}:\t" if start == 0 else "\t") + body)
    return lines


def make_transcript(seed: int, words: int) -> tuple[str, TranscriptTruth]:
    """Build a transcript holding about `words` kept word tokens (both
    speakers together) from `seed`. Returns the text and its ground truth."""
    rng = np.random.default_rng([seed, 0xC4A7])
    cdf = _zipf_cdf()
    kept = {"CHI": 0, "MOT": 0}
    dropped = {"CHI": 0, "MOT": 0}
    lines = [
        "@UTF8",
        "@Begin",
        "@Languages:\teng",
        "@Participants:\tCHI Target_Child , MOT Mother",
        "@ID:\teng|synthetic|CHI|2;06.00|female|||Target_Child|||",
        "@Comment:\tgenerated transcript; the header continues",
        "\ton a tab-indented line",
    ]
    topic = int(rng.integers(0, LEXICON_SIZE // TOPIC_WORDS))
    total = 0
    utterances = 0
    while total < words:
        # Draw one block of randomness per batch of utterances; the Python
        # loop below only assembles strings.
        batch = 2048
        lengths = rng.geometric(1.0 / 6.0, size=batch)
        n = int(lengths.sum())
        zipf_ids = np.searchsorted(cdf, rng.random(n), side="right").tolist()
        topic_pick = (rng.random(n) < TOPIC_SHARE).tolist()
        topic_offset = rng.integers(0, TOPIC_WORDS, size=n).tolist()
        markup = rng.random(n).tolist()
        which = rng.integers(0, 1 << 30, size=n).tolist()
        switch = (rng.random(batch) < TOPIC_SWITCH).tolist()
        new_topic = rng.integers(0, LEXICON_SIZE // TOPIC_WORDS, size=batch).tolist()
        child = (rng.random(batch) < 0.55).tolist()
        with_mor = (rng.random(batch) < 0.5).tolist()
        pos = 0
        for u in range(batch):
            if switch[u]:
                topic = new_topic[u]
            speaker = "CHI" if child[u] else "MOT"
            chunks: list[str] = []
            mor: list[str] = []
            n_words = 0
            n_codes = 0
            for _ in range(int(lengths[u])):
                if topic_pick[pos]:
                    word = LEXICON[topic * TOPIC_WORDS + topic_offset[pos]]
                else:
                    word = LEXICON[zipf_ids[pos]]
                r = markup[pos]
                w = which[pos]
                pos += 1
                if r < 0.02:
                    chunks.append(CODES[w % 3])
                    n_codes += 1
                    continue
                if r < 0.04:
                    chunks.append(FRAGMENTS[w % len(FRAGMENTS)])
                if r > 0.97:
                    word = word.capitalize()
                if 0.90 < r <= 0.93:
                    chunks.append(f"<{word} {LEXICON[w % 200]}>")
                    n_words += 2
                elif 0.93 < r <= 0.96:
                    chunks.append(f"{word} {ANNOTATIONS[w % len(ANNOTATIONS)]}")
                    n_words += 1
                else:
                    chunks.append(word)
                    n_words += 1
                mor.append("n|" + word.lower())
            chunks.append(TERMINATORS[utterances % 3])
            lines.extend(_layout("*" + speaker, chunks))
            if with_mor[u] and mor:
                lines.extend(_layout("%mor", mor + ["."]))
            if utterances % 97 == 0:
                lines.append("%com:\tsynthetic comment tier")
            kept[speaker] += n_words
            dropped[speaker] += n_codes
            total += n_words
            utterances += 1
            if total >= words:
                break
    lines.append("@End")
    return "\n".join(lines) + "\n", TranscriptTruth(kept=kept, dropped=dropped)
