"""Command-line front end.

Subcommands::

    bracket  print the bracket polynomial of a braid closure or PD diagram
    jones    print bracket, writhe, normalized invariant f, and Jones form V
    qsim     sample the braiding quantum computer and report a JSON record
    verify   run the algebraic relation suites

Exit codes: 0 success, 1 parse error, 2 size guard, 3 cross-check mismatch
or failed internal check, 4 invalid angle, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import qsim, unitary3, verify
from .braid import _parse_tokens, closure_bracket, closure_to_diagram, exponent_sum, parse_braid
from .diagram import (
    LinkDiagram,
    bracket_by_contraction,
    bracket_state_sum,
    diagram_from_json,
    normalize_bracket,
    writhe,
)
from .errors import (
    ExactDivisionError,
    InvalidAngleError,
    InvariantError,
    MismatchError,
    ParseError,
    SizeLimitError,
)
from .laurent import LaurentPoly

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SIZE = 2
EXIT_MISMATCH = 3
EXIT_ANGLE = 4
EXIT_VERIFY = 5


# Built once per process: main may be called many times in one interpreter.
@lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by name."""
    parser = argparse.ArgumentParser(prog="braidket")
    sub = parser.add_subparsers(dest="command", required=True)

    for verb in ("bracket", "jones"):
        p = sub.add_parser(verb, help=f"compute the {verb} output for a link")
        p.add_argument("--strands", type=int, help="strand count for braid input")
        p.add_argument("--word", type=str, help="braid word, e.g. '1 1 1'")
        p.add_argument("--pd", type=str, help="path to a PD diagram JSON file")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument(
            "--check",
            action="store_true",
            help="cross-check the trace or contracted bracket against the brute-force state sum",
        )

    q = sub.add_parser("qsim", help="run the 3-strand braiding computer")
    theta_help = "braiding angle in radians; write a negative one as --theta=-4.5e-05"
    q.add_argument("--theta", type=float, required=True, help=theta_help)
    q.add_argument("--word", type=str, required=True, help="3-strand braid word")
    q.add_argument("--prepare", type=int, default=0, help="basis index to prepare")
    q.add_argument("--shots", type=int, default=100000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true", help="accepted; output is always JSON")

    v = sub.add_parser("verify", help="run the relation suites")
    v.add_argument("--n", type=int, default=3, help="strand bound (2..5)")
    return parser, sub.choices


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser alone, by the name benchmark/tests calls."""
    return _parsers()[0]


def _read_diagram(path: str) -> LinkDiagram:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"PD file is not valid UTF-8: {exc}") from exc
    except (OSError, ValueError) as exc:
        # open() raises ValueError on a path it cannot take, such as one holding a NUL byte.
        raise ParseError(f"cannot read PD file: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, and an integer longer than sys.get_int_max_str_digits().
        raise ParseError(f"PD file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("PD file nests its JSON too deeply to parse") from None
    return diagram_from_json(data)


def _check_state_sum(diagram: LinkDiagram, bracket: LaurentPoly, method: str) -> None:
    via_states = bracket_state_sum(diagram)
    if via_states != bracket:
        raise MismatchError(f"state sum {via_states} disagrees with {method} bracket {bracket}")


def _bracket_and_writhe(args) -> tuple[LaurentPoly, int]:
    """Bracket and writhe of the one input source: a braid word or a PD file."""
    has_word = args.word is not None
    if has_word == (args.pd is not None):
        raise ParseError("provide exactly one input source: --word (with --strands) or --pd")
    if not has_word:
        diagram = _read_diagram(args.pd)
        bracket = bracket_by_contraction(diagram)
        if args.check:
            _check_state_sum(diagram, bracket, "contracted")
        return bracket, writhe(diagram)
    if args.strands is None:
        raise ParseError("--word requires --strands")
    word = parse_braid(args.word, args.strands)
    bracket, engine = closure_bracket(word)
    if args.check:
        _check_state_sum(closure_to_diagram(word), bracket, engine)
    return bracket, exponent_sum(word)


def cmd_bracket(args) -> int:
    bracket, _ = _bracket_and_writhe(args)
    if args.json:
        print(json.dumps({"bracket": bracket.to_json()}))
    else:
        print(bracket)
    return EXIT_OK


def cmd_jones(args) -> int:
    bracket, w = _bracket_and_writhe(args)
    f, v = normalize_bracket(bracket, w)
    if args.json:
        data = {"bracket": bracket.to_json(), "writhe": w, "f": f.to_json(), "V": v.to_json()}
        print(json.dumps(data))
    else:
        print(f"bracket: {bracket}\nwrithe: {w}\nf: {f}\nV: {v}")
    return EXIT_OK


def cmd_qsim(args) -> int:
    setup = unitary3.unitary_generators(args.theta)
    tokens = args.word.split()
    distinct = set(tokens)
    word = _parse_tokens(tokens, 3, distinct)
    if not 0 <= args.prepare <= 1:
        raise ParseError("--prepare must be 0 or 1")
    if args.shots < 1:
        raise ParseError("--shots must be positive")
    pairs = qsim.estimate_matrix_moduli(word, setup, args.shots, args.seed)
    # Column `prepare` was sampled with seed + prepare.  count / shots rounds
    # back to count exactly below 2**51 shots, far more than fit in memory.
    counts = [round(pairs[i][args.prepare][0] * args.shots) for i in range(2)]
    # str(word) rebuilds the word letter by letter; the input's own tokens
    # spell it the same way whenever each distinct token is canonical.
    canonical = all(str(int(token)) == token for token in distinct)
    report = {
        "theta": args.theta,
        "word": " ".join(tokens) if canonical else str(word),
        "prepare": args.prepare,
        "shots": args.shots,
        "seed": args.seed,
        "counts": counts,
        "estimates": [[pairs[i][j][0] for j in range(2)] for i in range(2)],
        "exact": [[pairs[i][j][1] for j in range(2)] for i in range(2)],
    }
    print(json.dumps(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n < 2:
        raise ParseError("--n must be at least 2")
    results = verify.run_all(args.n)
    failed = False
    for result in results:
        status = "pass" if result.passed else "FAIL"
        suffix = f" ({result.detail})" if result.detail else ""
        print(f"{result.name}: {status}{suffix}")
        failed = failed or not result.passed
    return EXIT_VERIFY if failed else EXIT_OK


_HANDLERS = {"bracket": cmd_bracket, "jones": cmd_jones, "qsim": cmd_qsim, "verify": cmd_verify}


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parse hands every token after a command's name to that
    # command's parser, so parsing them there directly gives the same
    # namespace without the top-level pass, which costs as much again on a
    # small call.  Anything else, a leftover token included, takes the
    # top-level parse, so every usage error and help text still comes from
    # argparse itself.
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return _run(args)
    return _run(parser.parse_args(argv))


def _run(args: argparse.Namespace) -> int:
    """The parsed command's handler, its errors mapped to exit codes."""
    try:
        return _HANDLERS[args.command](args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except InvalidAngleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANGLE
    except MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ExactDivisionError, InvariantError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
