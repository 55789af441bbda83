"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with plain ``pytest`` (lines print straight to the terminal even under
capture) or ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import math
import time

import pytest

from braidket import (
    DELTA,
    BraidWord,
    LaurentPoly,
    LinkDiagram,
    add_curl,
    bracket_from_trace,
    bracket_state_sum,
    bracket_via_trace,
    closure_to_diagram,
    estimate_matrix_moduli,
    find_phase_loss_witness,
    normalize,
    unitary_generators,
    writhe,
    z_amplitude,
)
from braidket.verify import run_all, suite_tl_relations
from conftest import random_words

TREFOIL = BraidWord(2, (1, 1, 1))
TREFOIL_F = LaurentPoly({-4: 1, -12: 1, -16: -1})


@pytest.fixture
def report(capsys):
    start = time.time()

    def _report(number: int, description: str, ok: bool):
        elapsed = time.time() - start
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"criterion {number:2d} {status} ({elapsed:5.1f}s): {description}")
        assert ok, f"criterion {number} failed: {description}"

    return _report


def test_criterion_01_bracket_axioms(report):
    start = time.time()
    ok = bracket_state_sum(LinkDiagram((), 1)) == LaurentPoly.one()
    ok = ok and bracket_via_trace(BraidWord(1, ())) == LaurentPoly.one()
    for word in random_words(101, 10, max_strands=3, max_length=5):
        base = closure_to_diagram(word)
        disjoint = LinkDiagram(base.crossings, base.free_loops + 1)
        ok = ok and bracket_state_sum(disjoint) == DELTA * bracket_state_sum(base)
    ok = ok and time.time() - start < 1.0
    report(1, "unknot bracket is 1; disjoint circle multiplies by delta", ok)


def test_criterion_02_curl_identities(report):
    start = time.time()
    pos = LaurentPoly.monomial(3, -1)
    neg = LaurentPoly.monomial(-3, -1)
    ok = True
    for word in random_words(202, 50, max_strands=4, max_length=6):
        diagram = closure_to_diagram(word)
        base = bracket_state_sum(diagram)
        ok = ok and bracket_state_sum(add_curl(diagram, 1)) == pos * base
        ok = ok and bracket_state_sum(add_curl(diagram, -1)) == neg * base
        ok = ok and writhe(add_curl(diagram, 1)) == writhe(diagram) + 1
    ok = ok and time.time() - start < 5.0
    report(2, "curls multiply the bracket by exactly -A^3 / -A^-3 (50 diagrams)", ok)


def test_criterion_03_trefoil_chirality(report):
    start = time.time()
    f, _ = normalize(closure_to_diagram(TREFOIL))
    ok = f == TREFOIL_F and f != f.invert_variable()
    ok = ok and time.time() - start < 1.0
    report(3, "trefoil f = A^-4 + A^-12 - A^-16 and f(A) != f(A^-1)", ok)


def test_criterion_04_triple_path_equivalence(report):
    start = time.time()
    ok = True
    count = 0
    for word in random_words(404, 200, max_strands=4, max_length=8):
        via_trace = bracket_via_trace(word)
        ok = ok and bracket_state_sum(closure_to_diagram(word)) == via_trace
        ok = ok and z_amplitude(word) == DELTA * via_trace
        count += 1
    ok = ok and count >= 200 and time.time() - start < 60.0
    report(4, "state sum = trace bracket and delta*bracket = tensor trace (200 braids)", ok)


def test_criterion_05_relation_suites(report):
    start = time.time()
    results = run_all(5)
    ok = all(r.passed for r in results)
    ok = ok and suite_tl_relations(6).passed
    ok = ok and time.time() - start < 30.0
    detail = ", ".join(r.name for r in results if not r.passed) or "all suites"
    report(5, f"TL/braid/Yang-Baxter relation suites ({detail})", ok)


def test_criterion_06_trace_identities(report):
    start = time.time()
    thetas = [
        0.0,
        math.pi / 30,
        -math.pi / 30,
        math.pi / 12,
        -math.pi / 12,
        math.pi / 8,
        -math.pi / 8,
        math.pi / 6,
        -math.pi / 6,
        math.pi,
    ]
    import numpy as np

    ok = True
    for theta in thetas:
        setup = unitary_generators(theta)
        ok = ok and abs(np.trace(setup.u1) - setup.delta) < 1e-12
        ok = ok and abs(np.trace(setup.u2) - setup.delta) < 1e-12
        ok = ok and abs(np.trace(setup.u1 @ setup.u2) - 1.0) < 1e-12
    ok = ok and time.time() - start < 1.0
    report(6, "trace(U1) = trace(U2) = delta, trace(U1 U2) = 1 at 10 angles", ok)


def test_criterion_07_three_strand_trace_formula(report):
    start = time.time()
    thetas = [math.pi / 10, -math.pi / 10, math.pi / 8, -math.pi / 8, math.pi / 6]
    exact_values: dict[tuple[int, ...], LaurentPoly] = {}
    for length in range(0, 7):
        for letters in itertools.product((1, -1, 2, -2), repeat=length):
            exact_values[letters] = bracket_via_trace(BraidWord(3, letters))
    ok = True
    for theta in thetas:
        setup = unitary_generators(theta)
        for letters, poly in exact_values.items():
            numeric = bracket_from_trace(BraidWord(3, letters), setup)
            if abs(numeric - poly.evaluate(setup.a)) >= 1e-9:
                ok = False
                break
    ok = ok and time.time() - start < 30.0
    report(7, "trace formula matches the exact bracket for all words of length <= 6", ok)


def test_criterion_08_sampling_statistics(report):
    start = time.time()
    shots = 100000
    words = [
        (1,),
        (2,),
        (1, 2),
        (2, -1),
        (1, 2, 1),
        (-2, 1, -2),
        (1, 1, 2),
        (2, 2),
        (1, -2),
        (2, 1, 2, 1),
    ]
    thetas = [math.pi / 10, math.pi / 8]
    ok = True
    config = 0
    for theta_index, theta in enumerate(thetas):
        setup = unitary_generators(theta)
        for word_index, letters in enumerate(words):
            j = (word_index + theta_index) % 2
            config += 1
            seed = 1000 + 17 * config
            pairs = estimate_matrix_moduli(BraidWord(3, letters), setup, shots, seed)
            for i in range(2):
                estimate, exact = pairs[i][j]
                se = math.sqrt(max(exact * (1 - exact), 0.0) / shots)
                if abs(estimate - exact) > 4 * se + 1e-12:
                    ok = False
    ok = ok and config == 20 and time.time() - start < 30.0
    report(8, "20 sampling configurations stay within 4 binomial standard errors", ok)


def test_criterion_09_phase_loss_witness(report):
    start = time.time()
    setup = unitary_generators(math.pi / 10)
    witness = find_phase_loss_witness(setup, max_length=4, moduli_tol=1e-12, bracket_tol=1e-6)
    ok = witness is not None
    if ok:
        ok = witness.moduli_gap <= 1e-12 and witness.bracket_gap > 1e-6
    ok = ok and time.time() - start < 60.0
    report(9, "equal-moduli pair with different brackets exists at length <= 4", ok)


def test_criterion_10_realness(report):
    def integral(poly):
        return all(type(c) is int for _, c in poly.terms())

    start = time.time()
    ok = True
    for word in random_words(707, 60, max_strands=4, max_length=7):
        ok = ok and integral(bracket_via_trace(word))
        ok = ok and integral(bracket_state_sum(closure_to_diagram(word)))
        ok = ok and integral(z_amplitude(word))
    diagram = closure_to_diagram(TREFOIL)
    ok = ok and integral(bracket_state_sum(add_curl(diagram, 1)))
    ok = ok and integral(normalize(diagram)[0])
    report(10, "every computed bracket has plain integer coefficients", ok)
