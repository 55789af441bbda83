import random
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from braidket import BraidWord, LaurentPoly, SymbolicMatrix

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


@st.composite
def braid_words(draw, min_strands=2, max_strands=4, max_length=8):
    n = draw(st.integers(min_strands, max_strands))
    length = draw(st.integers(0, max_length if n > 1 else 0))
    alphabet = [s * i for i in range(1, n) for s in (1, -1)]
    letters = tuple(draw(st.sampled_from(alphabet)) for _ in range(length))
    return BraidWord(n, letters)


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
