"""The package's import surface: which modules load numpy, and when."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidket

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter, so that no earlier test has imported numpy.
SCRIPT = """
import contextlib, io, json, sys
import braidket
import braidket.cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = braidket.cli.main(list(argv))
    return [code, out.getvalue(), "numpy" in sys.modules]

runs = [
    run("bracket", "--strands", "3", "--word", "1 1 1"),
    run("jones", "--strands", "2", "--word", "1 1 1", "--json"),
    run("jones", "--pd", sys.argv[1]),
    run("qsim", "--theta", "0.2", "--word", "1 2 -1", "--shots", "1000", "--seed", "3"),
    run("verify", "--n", "5"),
]
print(json.dumps(runs))
"""

VERIFY_SUITES = (
    "tl-relations",
    "tl-relations-tensor",
    "tl-relations-projector",
    "braid-relations-tl",
    "braid-relations-tensor",
    "braid-relations-projector",
    "braid-relations-unitary",
    "yang-baxter",
    "trace-identities",
    "cross-representation",
)


def run_fresh(script, *argv, flags=()):
    """stdout of ``script`` run in a fresh interpreter that imports src/."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, *flags, "-c", script, *argv]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60, check=True)
    return done.stdout


def test_exact_commands_never_load_numpy():
    stdout = run_fresh(SCRIPT, str(ROOT / "examples" / "trefoil_pd.json"))
    bracket, jones_braid, jones_pd, qsim, verify = json.loads(stdout)
    assert bracket == [0, "A^7 + A^3 + A^-1 - A^-9\n", False]
    assert jones_braid == [
        0,
        '{"bracket": [[5, -1, 0], [-3, -1, 0], [-7, 1, 0]], "writhe": 3, '
        '"f": [[-4, 1, 0], [-12, 1, 0], [-16, -1, 0]], "V": [[4, 1, 0], [12, 1, 0], [16, -1, 0]]}\n',
        False,
    ]
    jones_text = "bracket: A^7 - A^3 - A^-5\nwrithe: -3\nf: -A^16 + A^12 + A^4\nV: -t^-4 + t^-3 + t^-1\n"
    assert jones_pd == [0, jones_text, False]
    assert qsim == [
        0,
        '{"theta": 0.2, "word": "1 2 -1", "prepare": 0, "shots": 1000, "seed": 3, '
        '"counts": [293, 707], "estimates": [[0.293, 0.697], [0.707, 0.303]], '
        '"exact": [[0.29468852645274385, 0.7053114735472555], '
        "[0.7053114735472563, 0.2946885264527436]]}\n",
        True,
    ]
    assert verify == [0, "".join(f"{name}: pass\n" for name in VERIFY_SUITES), True]


def test_cli_never_loads_fractions_or_decimal():
    # jones on the Hopf link prints the fractional powers t^(1/2) and t^(5/2).
    script = """
import contextlib, io, sys
import braidket.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    braidket.cli.main(["jones", "--strands", "2", "--word", "1 1"])
loaded = sorted({"fractions", "decimal", "numbers"} & set(sys.modules))
print(out.getvalue().splitlines()[-1], loaded)
"""
    assert run_fresh(script) == "V: -t^(1/2) - t^(5/2) []\n"


def test_cli_import_freezes_what_it_built():
    # gc.get_objects() lists no frozen object.
    script = """
import gc
import braidket.cli
tracked = {id(o) for o in gc.get_objects()}
print(gc.get_freeze_count() > 0, id(braidket.cli.main) in tracked, id(braidket.tl.TLDiagram) in tracked)
"""
    assert run_fresh(script) == "True False False\n"


# Which modules each command loads that were not loaded before braidket
# was imported; a lazily registered module counts once its code has run.
# Run without the site module, so that no start-up hook preloads a module
# this test looks for.
LOADS_SCRIPT = """
import contextlib, io, sys
before = set(sys.modules)
import braidket, braidket.cli
lazy = type(braidket.qsim)

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = braidket.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    loaded = {name for name, module in sys.modules.items() if type(module) is not lazy}
    return [code, out.getvalue(), err.getvalue(), sorted(loaded - before)]

runs = [
    run("bracket", "--strands", "3", "--word", "1 1 1"),
    run("jones", "--strands", "2", "--word", "1 1"),
    run("jones", "--pd", sys.argv[1]),
    run("bracket", "--nope"),
]
import json
print(json.dumps(runs))
"""

#: Modules that bracket and jones never need: a class decorator with its
#: inspect and ast, the argument parser, the annotation types, and the
#: symbolic matrix representations.
NEVER_LOADED = {"dataclasses", "inspect", "ast", "argparse", "typing", "braidket.matrixrep"}


def test_bracket_and_jones_load_only_what_they_run():
    stdout = run_fresh(LOADS_SCRIPT, str(ROOT / "examples" / "trefoil_pd.json"), flags=["-S"])
    bracket, jones_braid, jones_pd, nope = json.loads(stdout)
    for code, out, err, loaded in (bracket, jones_braid, jones_pd):
        assert (code, err) == (0, "") and out
        assert not NEVER_LOADED & set(loaded), loaded
    for *_, loaded in (bracket, jones_braid):
        assert not {"json", "re"} & set(loaded), loaded
    # A PD file is read with json, which itself imports re.
    assert "json" in jones_pd[3]
    usage = "usage: braidket [-h] {bracket,jones,qsim,verify} ...\n"
    assert nope[:3] == [2, "", usage + "braidket: error: unrecognized arguments: --nope\n"]
    assert "argparse" in nope[3]


# What qsim and verify load beyond numpy, which they import first.
NUMPY_COMMANDS_SCRIPT = """
import contextlib, io, json, sys
import numpy
before = set(sys.modules)
import braidket.cli
codes = []
for argv in (["qsim", "--theta", "0.2", "--word", "1 2 -1", "--shots", "1000"], ["verify", "--n", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(braidket.cli.main(argv))
print(json.dumps([codes, sorted(set(sys.modules) - before)]))
"""


def test_qsim_and_verify_never_load_dataclasses():
    codes, loaded = json.loads(run_fresh(NUMPY_COMMANDS_SCRIPT))
    assert codes == [0, 0] and "braidket.qsim" in loaded and "braidket.verify" in loaded
    assert "dataclasses" not in loaded


#: Every name the package exported before its numpy-backed modules became
#: lazy, by the module that defines it.
EXPORTS = {
    "braid": ["BraidWord", "bracket_via_trace", "closure_to_diagram", "exponent_sum", "parse_braid", "rho_tl"],
    "diagram": [
        "Crossing",
        "LinkDiagram",
        "StateSummary",
        "add_curl",
        "bracket_by_contraction",
        "bracket_state_sum",
        "diagram_from_json",
        "diagram_to_json",
        "enumerate_states",
        "mirror_diagram",
        "normalize",
        "writhe",
        "writhe_factor",
    ],
    "errors": [
        "ExactDivisionError",
        "InvalidAngleError",
        "InvariantError",
        "MismatchError",
        "ParseError",
        "SizeLimitError",
    ],
    "laurent": ["A", "A_INV", "DELTA", "ONE", "ZERO", "JonesPoly", "LaurentPoly", "to_jones_variable"],
    "matrixrep": [
        "ElementaryTensors",
        "SymbolicMatrix",
        "burau_generator",
        "burau_rho",
        "elementary_tensors",
        "rho_matrix",
        "tl_tensor_image",
        "u_tensor",
        "z_amplitude",
    ],
    "qsim": [
        "PhaseLossWitness",
        "QState",
        "ShotRecord",
        "estimate_matrix_moduli",
        "evolve",
        "find_phase_loss_witness",
        "sample_shots",
        "short_word_table",
    ],
    "tl": [
        "TLDiagram",
        "TLElement",
        "closure_loop_count",
        "enumerate_basis",
        "generator_diagram",
        "identity_diagram",
        "markov_trace",
        "multiply",
    ],
    "unitary3": ["UnitarySetup", "bracket_from_trace", "rho_unitary", "unitary_generators"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_exports_resolve_to_their_module(module, name):
    assert getattr(braidket, name) is getattr(getattr(braidket, module), name)
    assert name in dir(braidket)


def test_lazy_modules_are_registered():
    for name in ("matrixrep", "qsim", "unitary3", "verify"):
        assert sys.modules[f"braidket.{name}"] is getattr(braidket, name)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        braidket.nonesuch
