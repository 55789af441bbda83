import random

import pytest
from hypothesis import strategies as st

from braidket import BraidWord, GaussianInt, LaurentPoly

gaussian_ints = st.builds(
    GaussianInt, st.integers(-9, 9), st.integers(-9, 9)
)
# Plain ints and Gaussians mixed, so sums, products and quotients meet an
# int on either side, and Gaussians with imaginary part 0 collapse to ints.
coefficients = st.one_of(st.integers(-9, 9), gaussian_ints)

laurent_polys = st.dictionaries(
    st.integers(-20, 20), coefficients, max_size=6
).map(LaurentPoly)


@st.composite
def braid_words(draw, min_strands=2, max_strands=4, max_length=8):
    n = draw(st.integers(min_strands, max_strands))
    length = draw(st.integers(0, max_length))
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
