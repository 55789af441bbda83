"""braidket: exact bracket/Jones computation and probabilistic braiding simulation.

Evaluation paths that must agree, and do so by construction of the tests:
the state sum over smoothings (contracted one crossing at a time, and
summed by brute force as its oracle), the Markov trace of the
Temperley-Lieb image of a braid, the closed-strand trace of the cup/cap
tensor representation, and (numerically, for three strands) the trace of the
unitary representation.
"""

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
    GaussianInt,
    JonesPoly,
    LaurentPoly,
    to_jones_variable,
)
from .matrixrep import (
    ElementaryTensors,
    SymbolicMatrix,
    burau_generator,
    burau_rho,
    elementary_tensors,
    rho_matrix,
    tl_tensor_image,
    u_tensor,
    z_amplitude,
)
from .qsim import (
    PhaseLossWitness,
    QState,
    ShotRecord,
    estimate_matrix_moduli,
    evolve,
    find_phase_loss_witness,
    sample_shots,
    short_word_table,
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
from .unitary3 import UnitarySetup, bracket_from_trace, rho_unitary, unitary_generators

__version__ = "0.1.0"
