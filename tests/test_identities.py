"""Jones's identities as an oracle for every exact engine: on the closure of
a braid of c components (the cycles of its permutation), V of any engine's
bracket must satisfy the four identities of ``conftest.jones_identity_failure``.
They check no engine against another, so they also catch a bug that two
engines share; a wrong diagram with its right invariant passes them."""

from hypothesis import given, settings
from hypothesis import strategies as st

from braidket import (
    DELTA,
    BraidWord,
    JonesPoly,
    bracket_by_contraction,
    bracket_state_sum,
    bracket_via_trace,
    closure_to_diagram,
    exponent_sum,
    writhe,
)
from braidket.braid import closure_bracket
from braidket.diagram import MAX_CROSSINGS, MAX_STATE_SUM_CROSSINGS, normalize_bracket
from braidket.matrixrep import z_amplitude
from conftest import braid_components, braid_words, jones_identity_failure, moved_and_shuffled


@given(
    st.one_of(st.just(BraidWord(1, ())), braid_words(min_strands=2, max_strands=9, max_length=40)),
    st.data(),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_engine_satisfies_jones_identities(word, data):
    c = braid_components(word)
    w = exponent_sum(word)
    for engine, bracket in (("closure_bracket", closure_bracket(word)[0]), ("trace", bracket_via_trace(word))):
        failure = jones_identity_failure(normalize_bracket(bracket, w)[1], c)
        assert failure is None, f"{engine}: {failure}"
    closure = closure_to_diagram(word)
    for name, diagram in (("closure", closure), ("moved closure", moved_and_shuffled(data.draw, closure, 3))):
        n = len(diagram.crossings)
        engines = [("contraction", bracket_by_contraction)] if n <= MAX_CROSSINGS else []
        if n <= MAX_STATE_SUM_CROSSINGS:
            engines.append(("state sum", bracket_state_sum))
        for engine, bracket_of in engines:
            failure = jones_identity_failure(normalize_bracket(bracket_of(diagram), writhe(diagram))[1], c)
            assert failure is None, f"{engine} of the {name}: {failure}"


# The cup/cap tensor trace is delta times the bracket; its guards allow at
# most 6 strands and 12 letters, and 5 x 10 keeps the test well under 2 s.
@given(st.one_of(st.just(BraidWord(1, ())), braid_words(min_strands=2, max_strands=5, max_length=10)))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_the_tensor_trace_satisfies_jones_identities(word):
    bracket = z_amplitude(word).divexact(DELTA)
    failure = jones_identity_failure(normalize_bracket(bracket, exponent_sum(word))[1], braid_components(word))
    assert failure is None, f"tensor trace: {failure}"
    assert bracket == bracket_via_trace(word)


def test_the_identities_reject_wrong_polynomials():
    unknot, hopf = JonesPoly({0: 1}), JonesPoly({-2: -1, -10: -1})
    assert jones_identity_failure(unknot, 1) is None and jones_identity_failure(hopf, 2) is None
    assert jones_identity_failure(unknot, 2) == "some exponent of t is not (c-1)/2 modulo 1 for c = 2"
    assert jones_identity_failure(JonesPoly({0: 1, 4: 1}), 1) == "V(1) != (-2)^0"
    assert jones_identity_failure(JonesPoly({0: 2, 4: -1}), 1) == "V(e^(2 pi i/3)) != 1"
    # The trefoil's V = -t^-4 + t^-3 + t^-1 times t^3 still passes the
    # first three identities, but not the knot's V'(1) = 0.
    assert jones_identity_failure(JonesPoly({-16: -1, -12: 1, -4: 1}), 1) is None
    assert jones_identity_failure(JonesPoly({-4: -1, 0: 1, 8: 1}), 1) == "V'(1) != 0 for a knot"
