"""Command-line interface.

Exit codes are a stable contract for scripting: 0 on success, 1 on usage
errors, 2 on data or degeneracy errors. Every randomized command requires
an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from . import harness, lrcstats
from .corpusio import (
    DEFAULT_DROP_CODES,
    ChatParseError,
    extract_speaker_with_stats,
    parse_chat_file,
    read_token_file,
)
from .genmodels import (
    MODEL_PARAMS,
    ModelParams,
    generate,
    generate_bigram,
    generate_zipf_iid,
    shuffle,
)
from .seqcore import DataError, write_json, write_token_file

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an int no smaller than low, or a usage error."""

    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def _speakers(text: str) -> list[str]:
    """An argparse type: the codes of a comma-separated list, at least one,
    or a usage error."""
    codes = [s for s in text.split(",") if s]
    if not codes:
        raise argparse.ArgumentTypeError(f"no speaker codes in {text!r}")
    return codes


def _cmd_analyze(args: argparse.Namespace) -> int:
    # An empty --rare names the empty word, which no token file holds.
    rare = args.rare.split(",") if args.rare is not None else None
    report = harness.run_analysis(args.input, n=args.n, out_dir=args.out, rare_words=rare)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


# The flags each model of `lrclab generate` takes, as argparse names: every
# one is required for its model, and any other one is a usage error.
GENERATE_FLAGS = {
    **{"py" if name == "pitman_yor" else name: taken for name, taken in MODEL_PARAMS.items()},
    "zipf": ("vocab", "exponent"),
    "bigram": ("corpus",),
}
_FLAGS = tuple(dict.fromkeys(f for taken in GENERATE_FLAGS.values() for f in taken))


def _cmd_generate(args: argparse.Namespace, parser: _Parser) -> int:
    model = args.model
    taken = GENERATE_FLAGS[model]
    given = [f for f in _FLAGS if getattr(args, f) is not None]
    if set(given) != set(taken):
        want, got = (" and ".join("--" + f for f in names) or "none" for names in (taken, given))
        parser.error(f"--model {model} takes {want}, got {got}")
    name = "pitman_yor" if model == "py" else model
    if name in MODEL_PARAMS:
        values = {f: getattr(args, f) for f in taken}
        params = ModelParams(model=name, length=args.length, seed=args.seed, **values)
        seq = generate(params)
        harness.write_sequence(seq, args.out, name, params.to_dict(), args.seed, params.degenerate)
        return 0
    if model == "zipf":
        seq = generate_zipf_iid(args.vocab, args.exponent, args.length, args.seed)
        params = {"vocab_size": args.vocab, "exponent": args.exponent}
    else:
        seq = generate_bigram(read_token_file(args.corpus), args.length, args.seed)
        params = {"corpus": str(args.corpus)}
    harness.write_sequence(seq, args.out, model, params, args.seed)
    return 0


def _cmd_shuffle(args: argparse.Namespace) -> int:
    seq = shuffle(read_token_file(args.input), args.seed)
    harness.write_sequence(seq, args.out, "shuffle", {"input": str(args.input)}, args.seed)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = harness.SweepSpec.from_json(args.spec)
    result = harness.run_sweep(spec, workers=args.workers)
    harness.write_sweep_result(result, args.out)
    failed = sum(1 for r in result.records if r.error)
    print(f"sweep complete: {len(result.records)} runs, {failed} failed cells -> {args.out}")
    return 0


def _cmd_chat_extract(args: argparse.Namespace) -> int:
    drop = set(args.drop_codes.split(",")) if args.drop_codes is not None else set(DEFAULT_DROP_CODES)
    # A transcript that does not parse or holds no tokens of the speakers is
    # named, as analyze names its token file; a failed read names it already.
    try:
        doc = parse_chat_file(args.input)
    except ChatParseError as exc:
        raise DataError(f"{args.input}: {exc}") from exc
    try:
        seq, dropped = extract_speaker_with_stats(doc, args.speakers, drop)
    except DataError as exc:
        raise DataError(f"{args.input}: {exc}") from exc
    write_token_file(seq, args.out)
    provenance = {
        "source_file": str(args.input),
        "speakers": sorted(s.upper() for s in args.speakers),
        "dropped_token_count": dropped,
    }
    write_json(str(args.out) + ".provenance.json", provenance)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    manifest = harness.emit_figure_data(args.input, args.id, args.out)
    print(json.dumps(manifest, indent=2))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="lrclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a token file")
    p.set_defaults(handler=_cmd_analyze)
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=_at_least(2), default=lrcstats.DEFAULT_RARITY, help="rarity divisor (default 16)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--rare", default=None, help="comma-separated surface forms forcing the rare set")

    p = sub.add_parser("generate", help="generate a sequence from a model")
    p.set_defaults(handler=functools.partial(_cmd_generate, parser=parser))
    p.add_argument("--model", required=True, choices=list(GENERATE_FLAGS))
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--exponent", type=float, default=None)
    p.add_argument("--vocab", type=int, default=None)
    p.add_argument("--corpus", default=None, help="corpus token file (bigram model)")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output token file")

    p = sub.add_parser("shuffle", help="shuffle a token file at the word level")
    p.set_defaults(handler=_cmd_shuffle)
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="run a parameter sweep from a JSON spec")
    p.set_defaults(handler=_cmd_sweep)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=_at_least(1), default=1)

    p = sub.add_parser("chat-extract", help="extract speaker tokens from a CHAT transcript")
    p.set_defaults(handler=_cmd_chat_extract)
    p.add_argument("--input", required=True)
    p.add_argument("--speakers", type=_speakers, required=True, help="comma-separated speaker codes")
    p.add_argument("--out", required=True)
    p.add_argument("--drop-codes", default=None,
                   help="comma-separated codes to drop (default xxx,yyy,www; an empty value drops none)")

    p = sub.add_parser("figure", help="emit the data behind one figure panel")
    p.set_defaults(handler=_cmd_figure)
    p.add_argument("--input", required=True, help="analysis or sweep output directory")
    p.add_argument("--id", required=True, choices=list(harness.FIGURE_IDS))
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DataError, OSError) as exc:
        print(f"lrclab: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
