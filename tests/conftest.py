import random
from dataclasses import dataclass
from functools import reduce
from operator import mul

import pytest
from hypothesis import strategies as st

from braidket import (
    BraidWord,
    Crossing,
    JonesPoly,
    LaurentPoly,
    LinkDiagram,
    SymbolicMatrix,
    add_curl,
    mirror_diagram,
)
from braidket.matrixrep import _strand_closer, _tensor_factor, trace_product

laurent_polys = st.dictionaries(
    st.integers(-20, 20), st.integers(-9, 9), max_size=6
).map(LaurentPoly)


@dataclass(frozen=True, slots=True)
class GaussianInt:
    """real + imag*i, for the oracle's cup/cap matrix M_I.

    Takes an int on either side and returns an int when the result is real,
    so LaurentPoly arithmetic carries it by duck typing and a real product
    compares equal to the package's int one.
    """

    real: int
    imag: int = 0

    def __add__(self, other):
        return _gauss(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return _gauss(-self.real, -self.imag)

    def __mul__(self, other):
        return _gauss(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __bool__(self):
        return self.real != 0 or self.imag != 0


def _gauss(real, imag):
    return GaussianInt(real, imag) if imag else real


I = GaussianInt(0, 1)

#: The paper's cup/cap matrix M = [[0, iA], [-iA^-1, 0]]; the package
#: computes with M' = M/i.
M_I = SymbolicMatrix(2, {(0, 1): LaurentPoly.monomial(1, I), (1, 0): LaurentPoly.monomial(-1, -I)})


def tensor_trace_oracle(word: BraidWord) -> tuple[SymbolicMatrix, LaurentPoly]:
    """rho(b) and Trace(eta^(tensor n) rho(b)) by the ``SymbolicMatrix``
    product: the letter factors folded by ``*``, then ``trace_product``
    against the strand closer, as ``matrixrep`` computed them before its
    packed product."""
    n = word.strands
    factors = (_tensor_factor(n, g) for g in word.letters)
    rho = reduce(mul, factors, SymbolicMatrix.identity(2**n))
    return rho, trace_product(_strand_closer(n), rho)


def torus_knot_jones(p: int, q: int) -> JonesPoly:
    """V(t) of the torus knot T(p, q), gcd(p, q) = 1, from the closed form
    t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2) (Jones,
    Ann. of Math. 126, 1987), in quarter exponents as ``JonesPoly`` keeps them.

    The division is exact: the quotient's coefficient at t^k is the
    numerator's plus the quotient's at t^(k-2), and the two left over at
    t^(p+q-1) and t^(p+q) must vanish.
    """
    numerator = [0] * (p + q + 1)
    for k, c in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        numerator[k] += c
    quotient: list[int] = []
    for k, c in enumerate(numerator):
        quotient.append(c + (quotient[k - 2] if k >= 2 else 0))
    assert quotient[-2:] == [0, 0], f"1 - t^2 does not divide the numerator of T({p}, {q})"
    shift = (p - 1) * (q - 1) // 2
    return JonesPoly({4 * (shift + k): c for k, c in enumerate(quotient) if c})


def jones_identity_failure(v: JonesPoly, components: int) -> str | None:
    """The first of Jones's identities that V, the Jones polynomial of a link
    of ``components`` components, fails, or None when it passes them all
    (Jones, Bull. AMS 12, 1985; Lickorish, An Introduction to Knot Theory,
    ch. 3).  In the quarter exponents q of ``JonesPoly``:

    - V lies in t^((c-1)/2) Z[t, 1/t]: every q = 2(c-1) mod 4;
    - V(1) = (-2)^(c-1): the coefficients sum to it;
    - V(e^(2 pi i/3)) = 1: at t^(1/4) = w = e^(2 pi i/3), with S_r the sum of
      the coefficients whose q = r mod 3, V is (S_0 - S_2) + (S_1 - S_2) w,
      so S_0 - S_2 = 1 and S_1 = S_2;
    - V'(1) = 0 for a knot: the sum of q c_q is 0.
    """
    terms = v.terms()
    c = components
    if any((q - 2 * (c - 1)) % 4 for q, _ in terms):
        return f"some exponent of t is not (c-1)/2 modulo 1 for c = {c}"
    if sum(coeff for _, coeff in terms) != (-2) ** (c - 1):
        return f"V(1) != (-2)^{c - 1}"
    sums = [0, 0, 0]
    for q, coeff in terms:
        sums[q % 3] += coeff
    if sums[0] - sums[2] != 1 or sums[1] != sums[2]:
        return "V(e^(2 pi i/3)) != 1"
    if c == 1 and sum(q * coeff for q, coeff in terms):
        return "V'(1) != 0 for a knot"
    return None


def braid_components(word: BraidWord) -> int:
    """Components of the closure of ``word``: the cycles of its permutation."""
    where = list(range(word.strands))
    for g in word.letters:
        i = abs(g)
        where[i - 1], where[i] = where[i], where[i - 1]
    seen, cycles = set(), 0
    for start in range(word.strands):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = where[k]
    return cycles


def add_curl_oracle(diagram: LinkDiagram, sign: int) -> LinkDiagram:
    """``add_curl`` in two paths, the oracle for its one: a bare loop becomes
    a kink of its own, and otherwise a walk over the slots renames the
    second end of the lowest arc."""
    labels = diagram.arc_labels()
    fresh = (max(labels) + 1) if labels else 0
    if not diagram.crossings:
        d, c = fresh, fresh + 1
        slots = (c, c, d, d) if sign > 0 else (d, c, c, d)
        return LinkDiagram(diagram.crossings + (Crossing(slots, sign),), diagram.free_loops - 1)
    a = labels[0]
    b, c = fresh, fresh + 1
    new_crossings = []
    seen_once = False
    for crossing in diagram.crossings:
        slots = []
        for s in crossing.slots:
            if s == a and seen_once:
                slots.append(b)
            else:
                if s == a:
                    seen_once = True
                slots.append(s)
        new_crossings.append(Crossing(tuple(slots), crossing.sign))
    kink = (c, c, a, b) if sign > 0 else (a, c, c, b)
    new_crossings.append(Crossing(kink, sign))
    return LinkDiagram(tuple(new_crossings), diagram.free_loops)


def moved_and_shuffled(draw, diagram: LinkDiagram, max_moves: int) -> LinkDiagram:
    """``diagram`` after up to ``max_moves`` curls and mirrors, drawn with
    hypothesis's ``draw``, with its crossings shuffled and its arcs relabeled
    among a few more labels than it has."""
    for move in draw(st.lists(st.sampled_from(["curl+", "curl-", "mirror"]), max_size=max_moves)):
        if move == "mirror":
            diagram = mirror_diagram(diagram)
        else:
            diagram = add_curl(diagram, 1 if move == "curl+" else -1)
    labels = diagram.arc_labels()
    new = dict(zip(labels, draw(st.permutations(range(len(labels) + 3)))))
    crossings = draw(st.permutations(diagram.crossings))
    crossings = tuple(Crossing(tuple(new[s] for s in c.slots), c.sign) for c in crossings)
    return LinkDiagram(crossings, diagram.free_loops)


@st.composite
def braid_words(draw, min_strands=2, max_strands=4, max_length=8):
    n = draw(st.integers(min_strands, max_strands))
    length = draw(st.integers(0, max_length if n > 1 else 0))
    alphabet = [s * i for i in range(1, n) for s in (1, -1)]
    letters = tuple(draw(st.sampled_from(alphabet)) for _ in range(length))
    return BraidWord(n, letters)


@st.composite
def with_cancelling_pairs(draw, words, max_pairs=3):
    """A word drawn from ``words`` with 1 to ``max_pairs`` cancelling pairs
    planted (``plant_cancelling_pairs``)."""
    word = draw(words)
    rng = draw(st.randoms(use_true_random=False))
    return plant_cancelling_pairs(rng, word, draw(st.integers(1, max_pairs)))


def plant_cancelling_pairs(rng, word, pairs):
    """``word`` with ``pairs`` pairs sigma_i^e sigma_i^-e inserted at places
    drawn from ``rng``, so that coefficients of the TL fold cancel to 0
    mid-word."""
    alphabet = [s * i for i in range(1, word.strands) for s in (1, -1)]
    letters = list(word.letters)
    for _ in range(pairs):
        at, g = rng.randint(0, len(letters)), rng.choice(alphabet)
        letters[at:at] = (g, -g)
    return BraidWord(word.strands, tuple(letters))


def random_words(seed, count, max_strands=4, max_length=8, min_strands=2):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(min_strands, max_strands)
        length = rng.randint(0, max_length)
        alphabet = [s * i for i in range(1, n) for s in (1, -1)]
        words.append(BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length))))
    return words


@pytest.fixture
def rng():
    return random.Random(20240811)
