"""Command-line front end.

Subcommands::

    bracket  print the bracket polynomial of a braid closure or PD diagram
    jones    print bracket, writhe, normalized invariant f, and Jones form V
    qsim     sample the braiding quantum computer and report a JSON record
    verify   run the algebraic relation suites

Exit codes: 0 success, 1 parse error or closed stdout, 2 size guard,
3 cross-check mismatch or failed internal check, 4 invalid angle,
5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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

#: The most characters ``--pd`` reads, so a file such as /dev/zero stops at
#: a size guard instead of filling memory.  A diagram the contraction takes
#: has at most 28 crossings, whose 112 slots hold labels of at most 4,300
#: digits (the default sys.get_int_max_str_digits): under 0.5 MB of JSON,
#: about an eighth of the bound.
MAX_PD_CHARS = 4_000_000


# Built once per process: main may be called many times in one interpreter.
@lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The top-level parser and, for each command, its options' actions by
    option string (``-h`` not among them)."""
    parser = argparse.ArgumentParser(prog="braidket")
    sub = parser.add_subparsers(dest="command", required=True)
    actions: dict[str, list[argparse.Action]] = {}

    for verb in ("bracket", "jones"):
        p = sub.add_parser(verb, help=f"compute the {verb} output for a link")
        actions[verb] = [
            p.add_argument("--strands", type=int, help="strand count for braid input"),
            p.add_argument("--word", type=str, help="braid word, e.g. '1 1 1'"),
            p.add_argument("--pd", type=str, help="path to a PD diagram JSON file"),
            p.add_argument("--json", action="store_true", help="emit JSON instead of text"),
            p.add_argument(
                "--check",
                action="store_true",
                help="cross-check the trace or contracted bracket against the brute-force state sum",
            ),
        ]

    q = sub.add_parser("qsim", help="run the 3-strand braiding computer")
    theta_help = "braiding angle in radians; write a negative one as --theta=-4.5e-05"
    actions["qsim"] = [
        q.add_argument("--theta", type=float, required=True, help=theta_help),
        q.add_argument("--word", type=str, required=True, help="3-strand braid word"),
        q.add_argument("--prepare", type=int, default=0, help="basis index to prepare"),
        q.add_argument("--shots", type=int, default=100000),
        q.add_argument("--seed", type=int, default=0),
        q.add_argument("--json", action="store_true", help="accepted; output is always JSON"),
    ]

    v = sub.add_parser("verify", help="run the relation suites")
    actions["verify"] = [v.add_argument("--n", type=int, default=3, help="strand bound (2..5)")]
    options = {
        verb: {option: action for action in group for option in action.option_strings}
        for verb, group in actions.items()
    }
    return parser, options


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser alone, by the name benchmark/tests calls."""
    return _parsers()[0]


# A token argparse reads as an option's value on every Python from 3.10 on:
# one not starting with "-", a negative integer or decimal, or a word with a
# space such as "-1 2 -1".  "-4.5e-05" is not one: argparse's negative-number
# rule reads it as an option up to 3.13.0 and as a value in some later
# releases.
_VALUE = re.compile(r"-(\d+|\d*\.\d+|\d.* .*)")


def _direct(options: dict[str, argparse.Action], tokens: list[str]) -> argparse.Namespace | None:
    """The namespace ``parse_args`` gives a command's ``tokens``, or None
    where argparse might read them otherwise.  Each token must be one of the
    command's option strings, none given twice, each but a flag followed by
    a value that ``_VALUE`` and the option's type accept, and every required
    option must be given."""
    given = {}
    rest = iter(tokens)
    for token in rest:
        action = options.get(token)
        if action is None or action.dest in given:
            return None
        if action.nargs == 0:
            given[action.dest] = action.const
            continue
        value = next(rest, None)
        if value is None or (value.startswith("-") and _VALUE.fullmatch(value) is None):
            return None
        try:
            given[action.dest] = action.type(value)
        except (TypeError, ValueError):
            return None
    values = {}
    for action in options.values():
        if action.required and action.dest not in given:
            return None
        values[action.dest] = given.get(action.dest, action.default)
    return argparse.Namespace(**values)


def _read_diagram(path: str) -> LinkDiagram:
    try:
        # A bounded read of a text file takes it in small chunks; one of a
        # binary file would allocate the whole bound first.
        with open(path, encoding="utf-8") as handle:
            text = handle.read(MAX_PD_CHARS + 1)
    except UnicodeDecodeError as exc:
        raise ParseError(f"PD file is not valid UTF-8: {exc}") from exc
    except (OSError, ValueError) as exc:
        # open() raises ValueError on a path it cannot take, such as one holding a NUL byte.
        raise ParseError(f"cannot read PD file: {exc}") from exc
    if len(text) > MAX_PD_CHARS:
        raise SizeLimitError(f"PD file exceeds the {MAX_PD_CHARS}-character guard")
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
    # argparse costs about as much as a small command's own work.  A known
    # command's tokens that _direct reads as argparse would, on every Python
    # it runs on, skip it; anything else, every help text and usage error
    # included, takes the full top-level parse.
    options = commands.get(argv[0]) if argv else None
    if options is not None and (args := _direct(options, argv[1:])) is not None:
        args.command = argv[0]
        return _run(args)
    try:
        try:
            args = parser.parse_args(argv)
        finally:  # -h exits from inside parse_args, before _run's flush
            sys.stdout.flush()
    except BrokenPipeError:  # help to a closed stdout, as in _run (3.10's argparse raises it)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return _run(args)


def _run(args: argparse.Namespace) -> int:
    """The parsed command's handler, its errors mapped to exit codes."""
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed, as by `| head -1`.  Python flushes it again at
        # exit, so point it at devnull first (the Python docs' recipe).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE
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
