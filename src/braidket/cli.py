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

import gc
import os
import sys
from functools import lru_cache
from types import SimpleNamespace

from . import qsim, unitary3, verify
from .braid import (
    BraidWord,
    _parse_tokens,
    closure_bracket,
    closure_to_diagram,
    exponent_sum,
    parse_braid,
)
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

#: The default of an option that must be given.
_REQUIRED = object()

_INPUT_OPTIONS = {
    "--strands": (int, None, "strand count for braid input"),
    "--word": (str, None, "braid word, e.g. '1 1 1'"),
    "--pd": (str, None, "path to a PD diagram JSON file"),
    "--json": (bool, False, "emit JSON instead of text"),
    "--check": (
        bool, False, "cross-check the trace or contracted bracket against the brute-force state sum"
    ),
}
_QSIM_OPTIONS = {
    "--theta": (float, _REQUIRED, "braiding angle in radians; write a negative one as --theta=-4.5e-05"),
    "--word": (str, _REQUIRED, "3-strand braid word"),
    "--prepare": (int, 0, "basis index to prepare"),
    "--shots": (int, 100000, None),
    "--seed": (int, 0, None),
    "--json": (bool, False, "accepted; output is always JSON"),
}

#: Each command's help and its options, by option string: (type, default,
#: help).  A type of bool marks a flag, and an option's dest is its name
#: without "--".  main reads common argv from this table alone (``_direct``);
#: the argparse parsers are built from it for the rest.
_COMMANDS = {
    "bracket": ("compute the bracket output for a link", _INPUT_OPTIONS),
    "jones": ("compute the jones output for a link", _INPUT_OPTIONS),
    "qsim": ("run the 3-strand braiding computer", _QSIM_OPTIONS),
    "verify": ("run the relation suites", {"--n": (int, 3, "strand bound (2..5)")}),
}


# Built once per process: main may be called many times in one interpreter.
@lru_cache(maxsize=None)
def _parsers():
    """The top-level argparse parser, built from ``_COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(prog="braidket")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for option, (kind, default, note) in options.items():
            if kind is bool:
                p.add_argument(option, action="store_true", help=note)
            elif default is _REQUIRED:
                p.add_argument(option, type=kind, required=True, help=note)
            else:
                p.add_argument(option, type=kind, default=default, help=note)
    return parser


def _build_parser():
    """The top-level parser, by the name benchmark/tests calls."""
    return _parsers()


def _is_value(token: str) -> bool:
    r"""Whether argparse reads ``token`` as an option's value on every Python
    from 3.10 on: one not starting with "-", a negative integer or decimal,
    or a word with a space such as "-1 2 -1" (the regular expression
    ``-(\d+|\d*\.\d+|\d.* .*)``, whose digits are str.isdecimal's and
    whose "." is any character but a newline).  "-4.5e-05" is not one:
    argparse's negative-number rule reads it as an option up to 3.13.0 and
    as a value in some later releases."""
    if token[:1] != "-":
        return True
    rest = token[1:]
    whole, _, fraction = rest.partition(".")
    return (
        rest.isdecimal()
        or (fraction.isdecimal() and (not whole or whole.isdecimal()))
        or (rest[:1].isdecimal() and " " in rest and "\n" not in rest)
    )


def _direct(options: dict[str, tuple], tokens: list[str]) -> SimpleNamespace | None:
    """The namespace ``parse_args`` gives a command's ``tokens``, or None
    where argparse might read them otherwise.  Each token must be one of the
    command's option strings, none given twice, each but a flag followed by
    a value that ``_is_value`` and the option's type accept, and every
    required option must be given."""
    given = {}
    rest = iter(tokens)
    for token in rest:
        spec = options.get(token)
        if spec is None or token in given:
            return None
        kind = spec[0]
        if kind is bool:
            given[token] = True
            continue
        value = next(rest, None)
        if value is None or not _is_value(value):
            return None
        try:
            given[token] = kind(value)
        except ValueError:
            return None
    values = {}
    for option, (_, default, _) in options.items():
        value = given.get(option, default)
        if value is _REQUIRED:
            return None
        values[option[2:]] = value
    return SimpleNamespace(**values)


def _print_json(data) -> None:
    import json

    print(json.dumps(data))


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
    import json

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


def _bracket(args) -> tuple[LaurentPoly, BraidWord | LinkDiagram]:
    """Bracket of the one input source, a braid word or a PD file, and that
    source."""
    has_word = args.word is not None
    if has_word == (args.pd is not None):
        raise ParseError("provide exactly one input source: --word (with --strands) or --pd")
    if not has_word:
        diagram = _read_diagram(args.pd)
        bracket = bracket_by_contraction(diagram)
        if args.check:
            _check_state_sum(diagram, bracket, "contracted")
        return bracket, diagram
    if args.strands is None:
        raise ParseError("--word requires --strands")
    word = parse_braid(args.word, args.strands)
    bracket, engine = closure_bracket(word)
    if args.check:
        _check_state_sum(closure_to_diagram(word), bracket, engine)
    return bracket, word


def cmd_bracket(args) -> int:
    bracket, _ = _bracket(args)
    if args.json:
        _print_json({"bracket": bracket.to_json()})
    else:
        print(bracket)
    return EXIT_OK


def cmd_jones(args) -> int:
    bracket, source = _bracket(args)
    w = writhe(source) if isinstance(source, LinkDiagram) else exponent_sum(source)
    f, v = normalize_bracket(bracket, w)
    if args.json:
        _print_json({"bracket": bracket.to_json(), "writhe": w, "f": f.to_json(), "V": v.to_json()})
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
    _print_json(report)
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
    if argv is None:
        argv = sys.argv[1:]
    # argparse costs about as much as a small command's own work, and more
    # to import.  A known command's tokens that _direct reads as argparse
    # would, on every Python it runs on, skip it; anything else, every help
    # text and usage error included, takes the full top-level parse.
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None and (args := _direct(command[1], argv[1:])) is not None:
        args.command = argv[0]
        return _run(args)
    try:
        try:
            args = _parsers().parse_args(argv)
        finally:  # -h exits from inside parse_args, before _run's flush
            sys.stdout.flush()
    except BrokenPipeError:  # help to a closed stdout, as in _run (3.10's argparse raises it)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return _run(args)


def _run(args) -> int:
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


# What the import built (modules, classes, tables) lives as long as the
# process.  Frozen, no later collection walks it, and the collector's counts
# start from zero: when the first collection of a command comes no longer
# depends on how many objects the import happened to allocate.
gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
