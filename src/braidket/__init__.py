"""braidket: exact bracket/Jones computation and probabilistic braiding simulation.

Evaluation paths that must agree, and do so by construction of the tests:
the state sum over smoothings (contracted one crossing at a time, and
summed by brute force as its oracle), the Markov trace of the
Temperley-Lieb image of a braid, the closed-strand trace of the cup/cap
tensor representation, and (numerically, for three strands) the trace of the
unitary representation.

Only that last path uses numpy: ``unitary3``, the shot sampler ``qsim`` built
on it, and ``verify``, whose suites check it.  These three and the symbolic
matrix representations of ``matrixrep``, which the CLI's ``bracket`` and
``jones`` never run, are registered lazily (``importlib.util.LazyLoader``):
each sits in ``sys.modules`` and as an attribute here, but its code, numpy
included, runs on its first attribute access.  A process that computes only
exact brackets never loads numpy.
"""

import importlib.util
import sys

from .braid import (
    BraidWord,
    bracket_via_trace,
    closure_to_diagram,
    exponent_sum,
    parse_braid,
    rho_tl,
)
from .diagram import (
    Crossing,
    LinkDiagram,
    StateSummary,
    add_curl,
    bracket_by_contraction,
    bracket_state_sum,
    diagram_from_json,
    diagram_to_json,
    enumerate_states,
    mirror_diagram,
    normalize,
    writhe,
    writhe_factor,
)
from .errors import (
    ExactDivisionError,
    InvalidAngleError,
    InvariantError,
    MismatchError,
    ParseError,
    SizeLimitError,
)
from .laurent import (
    A,
    A_INV,
    DELTA,
    ONE,
    ZERO,
    JonesPoly,
    LaurentPoly,
    to_jones_variable,
)
from .tl import (
    TLDiagram,
    TLElement,
    closure_loop_count,
    enumerate_basis,
    generator_diagram,
    identity_diagram,
    markov_trace,
    multiply,
)


def _lazy(name: str):
    """Register submodule ``name`` to execute on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


matrixrep, unitary3, qsim, verify = map(_lazy, ("matrixrep", "unitary3", "qsim", "verify"))

#: Names re-exported from the lazy modules, resolved by ``__getattr__``.
_LAZY_NAMES = dict.fromkeys(
    (
        "ElementaryTensors",
        "SymbolicMatrix",
        "burau_generator",
        "burau_rho",
        "elementary_tensors",
        "rho_matrix",
        "tl_tensor_image",
        "u_tensor",
        "z_amplitude",
    ),
    "matrixrep",
) | dict.fromkeys(
    ("UnitarySetup", "bracket_from_trace", "rho_unitary", "unitary_generators"), "unitary3"
) | dict.fromkeys(
    (
        "PhaseLossWitness",
        "QState",
        "ShotRecord",
        "estimate_matrix_moduli",
        "evolve",
        "find_phase_loss_witness",
        "sample_shots",
        "short_word_table",
    ),
    "qsim",
)


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(globals()[_LAZY_NAMES[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_LAZY_NAMES])


__version__ = "0.1.0"
