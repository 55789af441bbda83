import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidket import (
    A,
    A_INV,
    DELTA,
    BraidWord,
    LaurentPoly,
    SymbolicMatrix,
    bracket_via_trace,
    burau_generator,
    burau_rho,
    elementary_tensors,
    enumerate_basis,
    rho_matrix,
    rho_tl,
    tl_tensor_image,
    u_tensor,
    z_amplitude,
)
from braidket.errors import SizeLimitError
from braidket.matrixrep import (
    MAX_TENSOR_STRANDS,
    MAX_TENSOR_WORD,
    _diagram_tensor_image,
    trace_product,
)
from conftest import I, M_I, random_words, tensor_trace_oracle

# Entries whose sums and products cancel: A + (-A) = 0, A*A + (iA)*(iA) = 0.
_ENTRIES = [
    LaurentPoly.zero(),
    LaurentPoly.one(),
    -LaurentPoly.one(),
    A,
    -A,
    A_INV,
    LaurentPoly.monomial(1, I),
    LaurentPoly.monomial(-1, -I),
]


def dense_matrices(dim):
    row = st.lists(st.sampled_from(_ENTRIES), min_size=dim, max_size=dim)
    return st.lists(row, min_size=dim, max_size=dim)


def sparse(rows) -> SymbolicMatrix:
    return SymbolicMatrix(
        len(rows), {(i, j): e for i, row in enumerate(rows) for j, e in enumerate(row)}
    )


# Dense reference: plain lists of rows, zeros included.
def dense_mul(x, y):
    d = len(x)
    zero = LaurentPoly.zero()
    return [[sum((x[i][k] * y[k][j] for k in range(d)), zero) for j in range(d)] for i in range(d)]


def dense_add(x, y):
    return [[a + b for a, b in zip(row_x, row_y)] for row_x, row_y in zip(x, y)]


def dense_kron(x, y):
    d2 = len(y)
    return [
        [x[i // d2][j // d2] * y[i % d2][j % d2] for j in range(len(x) * d2)]
        for i in range(len(x) * d2)
    ]


def dense_trace(x):
    return sum((x[i][i] for i in range(len(x))), LaurentPoly.zero())


class TestSparseStorage:
    @given(
        st.integers(1, 4).flatmap(lambda d: st.tuples(dense_matrices(d), dense_matrices(d))),
        st.integers(1, 2).flatmap(dense_matrices),
        st.sampled_from(_ENTRIES + [0, 2, -3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_operations_match_the_dense_reference(self, pair, other, factor):
        a, b = pair
        x, y, z = sparse(a), sparse(b), sparse(other)
        results = [
            (x * y, dense_mul(a, b)),
            (x + y, dense_add(a, b)),
            (x.scale(factor), [[e * factor for e in row] for row in a]),
            (x.transpose(), [list(col) for col in zip(*a)]),
            (x.kron(z), dense_kron(a, other)),
            (z.kron(y), dense_kron(other, b)),
        ]
        for got, want in results:
            assert got.rows == want
            assert got == sparse(want)
            assert not any(e.is_zero for e in got.entries.values())
        assert x.trace() == dense_trace(a)
        assert trace_product(x, y) == dense_trace(dense_mul(a, b))

    def test_cancelled_entries_are_dropped(self):
        identity = {(i, i): LaurentPoly.one() for i in range(4)}
        assert rho_matrix(BraidWord(2, (1, -1))).entries == identity
        assert burau_rho(BraidWord(3, (2, -2))).entries == {
            (i, i): LaurentPoly.one() for i in range(3)
        }
        assert SymbolicMatrix(2, {(0, 1): LaurentPoly.zero()}).entries == {}

    def test_dense_view(self):
        u = burau_generator(3, 2)
        assert len(u.entries) == 4
        assert u.rows[0] == [LaurentPoly.zero()] * 3
        assert u.rows[1][2] == u[1, 2] == LaurentPoly.one()


# The paper's M = M_I (conftest) carries i; the package's M' = M/i does not.
class TestElementaryTensors:
    def test_m_is_self_inverse(self):
        m, _, _ = elementary_tensors()
        assert M_I * M_I == SymbolicMatrix.identity(2)
        assert m * m == SymbolicMatrix.identity(2).scale(-1)

    def test_m_entries(self):
        m, _, _ = elementary_tensors()
        assert M_I[0, 1] == LaurentPoly.monomial(1, I)
        assert M_I[1, 0] == LaurentPoly.monomial(-1, -I)
        assert m.scale(LaurentPoly.monomial(0, I)) == M_I
        assert m[0, 0].is_zero and m[1, 1].is_zero

    def test_circle_amplitude(self):
        m, _, _ = elementary_tensors()
        for matrix, loop in ((M_I, DELTA), (m, -DELTA)):
            total = LaurentPoly.zero()
            for a in range(2):
                for b in range(2):
                    total = total + matrix[a, b] * matrix[a, b]
            assert total == loop

    def test_eta(self):
        _, eta, _ = elementary_tensors()
        assert eta == M_I * M_I.transpose()
        assert eta[0, 0] == LaurentPoly.monomial(2, -1)
        assert eta[1, 1] == LaurentPoly.monomial(-2, -1)
        assert eta[0, 1].is_zero and eta[1, 0].is_zero
        assert eta.trace() == DELTA

    def test_r_is_inverse_crossing(self):
        # R = A*cupcap + A^-1*I is exactly the image of the inverse generator
        _, _, r = elementary_tensors()
        sigma = rho_matrix(BraidWord(2, (1,)))
        assert r * sigma == SymbolicMatrix.identity(4)
        assert r == rho_matrix(BraidWord(2, (-1,)))


def cup_cap_block():
    """U^{ab}_{cd} = M^{ab} M_{cd}: the paper's 4x4 cup-over-cap block."""
    m = M_I.entries
    return SymbolicMatrix(
        4, {(2 * a + b, 2 * c + d): x * y for (a, b), x in m.items() for (c, d), y in m.items()}
    )


def u_block(n, i):
    """U_i on (C^2)^(tensor n): identities around the paper's cup-over-cap block."""
    left = SymbolicMatrix.identity(2 ** (i - 1))
    right = SymbolicMatrix.identity(2 ** (n - i - 1))
    return left.kron(cup_cap_block()).kron(right)


# eta, R and u_tensor meet M_I in TestElementaryTensors and TestUTensor.
class TestAgainstThePapersM:
    def test_projectors_and_z_amplitude_equal_their_images_built_from_m_i(self):
        for n in range(2, 7):
            for k in range(1, n):
                v = {k - 1: M_I[0, 1], k: M_I[1, 0]}
                projector = {(i, j): a * b for i, a in v.items() for j, b in v.items()}
                assert burau_generator(n, k) == SymbolicMatrix(n, projector)
        for word in random_words(59, 12, max_strands=4, max_length=6):
            n = word.strands
            identity = SymbolicMatrix.identity(2**n)
            rho = identity
            for g in word.letters:
                a, a_inv = (A, A_INV) if g > 0 else (A_INV, A)
                rho = rho * (identity.scale(a) + u_block(n, abs(g)).scale(a_inv))
            closer = reduce(SymbolicMatrix.kron, [M_I * M_I.transpose()] * n)
            assert z_amplitude(word) == trace_product(closer, rho)


class TestUTensor:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_identities_around_the_cup_cap_block(self, n):
        for i in range(1, n):
            assert u_tensor(n, i) == u_block(n, i)

    def test_r_is_built_from_the_cup_cap_block(self):
        _, _, r = elementary_tensors()
        assert r == cup_cap_block().scale(A) + SymbolicMatrix.identity(4).scale(A_INV)

    def test_u_squared(self):
        u = u_tensor(2, 1)
        assert u * u == u.scale(DELTA)

    def test_sandwich_relation(self):
        u1, u2 = u_tensor(3, 1), u_tensor(3, 2)
        assert u1 * u2 * u1 == u1
        assert u2 * u1 * u2 == u2

    def test_distant_commutation(self):
        u1, u3 = u_tensor(4, 1), u_tensor(4, 3)
        assert u1 * u3 == u3 * u1

    def test_guards(self):
        with pytest.raises(SizeLimitError):
            u_tensor(7, 1)
        with pytest.raises(ValueError):
            u_tensor(3, 3)
        with pytest.raises(ValueError):
            u_tensor(3, 0)


class TestRhoMatrix:
    def test_inverse_pair(self):
        product = rho_matrix(BraidWord(2, (1, -1)))
        assert product == SymbolicMatrix.identity(4)

    def test_yang_baxter(self):
        assert rho_matrix(BraidWord(3, (1, 2, 1))) == rho_matrix(BraidWord(3, (2, 1, 2)))

    def test_matches_tl_image(self):
        for word in random_words(31, 20, max_strands=4, max_length=6):
            assert rho_matrix(word) == tl_tensor_image(rho_tl(word))

    def test_word_length_guard(self):
        half = rho_matrix(BraidWord(2, (1,) * 6))
        assert rho_matrix(BraidWord(2, (1,) * 12)) == half * half
        with pytest.raises(SizeLimitError):
            rho_matrix(BraidWord(2, (1,) * 13))


def tensor_image_oracle(diagram):
    """Every (row, column) pair scanned; the paper's M factors of the arcs
    multiplied in, i included."""
    n = diagram.n
    top, bottom, through = [], [], []
    for p, q in diagram.arcs():
        if q < n:
            top.append((p, q))
        elif p >= n:
            bottom.append((p - n, q - n))
        else:
            through.append((p, q - n))
    entries = {}
    for row in range(2**n):
        a = [(row >> (n - 1 - p)) & 1 for p in range(n)]
        for col in range(2**n):
            b = [(col >> (n - 1 - p)) & 1 for p in range(n)]
            if any(a[p] != b[q] for p, q in through):
                continue
            entry = LaurentPoly.one()
            for p, q in top:
                entry = entry * M_I[a[p], a[q]]
            for p, q in bottom:
                entry = entry * M_I[b[p], b[q]]
            entries[row, col] = entry
    return SymbolicMatrix(2**n, entries)


class TestDiagramTensorImage:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_the_full_scan_on_the_basis(self, n):
        for diagram in enumerate_basis(n):
            image = _diagram_tensor_image(diagram)
            assert image == tensor_image_oracle(diagram)
            assert len(image.entries) == 2**n


class TestZAmplitude:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_word(self, n):
        assert z_amplitude(BraidWord(n, ())) == DELTA**n

    def test_single_generator_closure(self):
        # Trace(eta x eta x eta * U_1) = delta^2: two closure loops
        from braidket.matrixrep import trace_product

        _, eta, _ = elementary_tensors()
        eta3 = eta.kron(eta).kron(eta)
        assert trace_product(eta3, u_tensor(3, 1)) == DELTA * DELTA

    def test_trefoil(self):
        word = BraidWord(2, (1, 1, 1))
        assert z_amplitude(word) == DELTA * LaurentPoly({5: -1, -3: -1, -7: 1})

    def test_equals_delta_times_bracket(self):
        for word in random_words(37, 25, max_strands=4, max_length=6):
            assert z_amplitude(word) == DELTA * bracket_via_trace(word)


def guard_words(seed, count):
    """``count`` seeded words of MAX_TENSOR_WORD letters on MAX_TENSOR_STRANDS."""
    rng = random.Random(seed)
    alphabet = [s * i for i in range(1, MAX_TENSOR_STRANDS) for s in (1, -1)]
    return [
        BraidWord(MAX_TENSOR_STRANDS, tuple(rng.choice(alphabet) for _ in range(MAX_TENSOR_WORD)))
        for _ in range(count)
    ]


class TestPackedProduct:
    # The longest words on the most strands the guards let in, where the
    # packed digits hold their largest coefficients.
    @pytest.mark.parametrize(
        "word",
        [
            BraidWord(MAX_TENSOR_STRANDS, (1, 3, 5) * 4),
            BraidWord(MAX_TENSOR_STRANDS, (-1, -3, -5) * 4),
            BraidWord(MAX_TENSOR_STRANDS, (1,) * MAX_TENSOR_WORD),
            BraidWord(2, (-1,) * MAX_TENSOR_WORD),
            *guard_words(43, 8),
        ],
        ids=str,
    )
    def test_matches_the_symbolic_product_at_the_guards(self, word):
        rho, trace = tensor_trace_oracle(word)
        assert rho_matrix(word) == rho
        assert z_amplitude(word) == trace == DELTA * bracket_via_trace(word)

    def test_matches_the_symbolic_product_on_shorter_words(self):
        words = [BraidWord(1, ()), *random_words(47, 40, max_strands=MAX_TENSOR_STRANDS)]
        for word in words:
            rho, trace = tensor_trace_oracle(word)
            assert rho_matrix(word) == rho
            assert z_amplitude(word) == trace


class TestBurau:
    def test_generator_entries(self):
        u = burau_generator(2, 1)
        assert u[0, 0] == LaurentPoly.monomial(2, -1)
        assert u[0, 1] == LaurentPoly.one()
        assert u[1, 0] == LaurentPoly.one()
        assert u[1, 1] == LaurentPoly.monomial(-2, -1)

    def test_tl_relations(self):
        for n in range(2, 6):
            zero = SymbolicMatrix.zeros(n)
            for k in range(1, n):
                u_k = burau_generator(n, k)
                assert u_k * u_k == u_k.scale(DELTA)
                for l in range(1, n):
                    u_l = burau_generator(n, l)
                    if abs(k - l) == 1:
                        assert u_k * u_l * u_k == u_k
                    elif abs(k - l) > 1:
                        assert u_k * u_l == zero
                        assert u_l * u_k == zero

    def test_rho_sigma1_two_strands(self):
        expected = SymbolicMatrix.identity(2).scale(A) + burau_generator(2, 1).scale(A_INV)
        assert burau_rho(BraidWord(2, (1,))) == expected

    def test_inverse_pair(self):
        assert burau_rho(BraidWord(3, (1, -1))) == SymbolicMatrix.identity(3)

    def test_braid_relations(self):
        for n in range(3, 6):
            for i in range(1, n - 1):
                lhs = burau_rho(BraidWord(n, (i, i + 1, i)))
                rhs = burau_rho(BraidWord(n, (i + 1, i, i + 1)))
                assert lhs == rhs
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert burau_rho(BraidWord(n, (i, j))) == burau_rho(BraidWord(n, (j, i)))

    def test_index_guard(self):
        with pytest.raises(ValueError):
            burau_generator(3, 3)


class TestFoldOrder:
    # Every generator image is symmetric, so a fold over the reversed word
    # yields rho(b)^T: it passes the relation suites, not this split.
    @pytest.mark.parametrize("rho", [rho_matrix, burau_rho])
    def test_image_of_a_concatenation_is_the_product(self, rho):
        words = [BraidWord(3, (1, 2)), *random_words(53, 12, min_strands=3, max_length=6)]
        for word in words:
            for cut in range(len(word.letters) + 1):
                head, tail = word.letters[:cut], word.letters[cut:]
                product = rho(BraidWord(word.strands, head)) * rho(BraidWord(word.strands, tail))
                assert rho(word) == product


class TestFiniteEvaluation:
    def test_entries_finite_on_unit_circle(self):
        import cmath

        a = cmath.exp(0.37j)
        rho = rho_matrix(BraidWord(3, (1, -2, 1)))
        for row in rho.rows:
            for entry in row:
                if not entry.is_zero:
                    value = entry.evaluate(a)
                    assert abs(value) < 1e6

    def test_z_amplitude_real(self):
        for word in random_words(41, 15, max_strands=3, max_length=6):
            assert all(type(c) is int for _, c in z_amplitude(word).terms())
