import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidket import (
    DELTA,
    LaurentPoly,
    TLDiagram,
    TLElement,
    bracket_via_trace,
    closure_loop_count,
    enumerate_basis,
    generator_diagram,
    identity_diagram,
    markov_trace,
    multiply,
)
from braidket import tl
from braidket._uf import DisjointSet
from braidket.errors import SizeLimitError
from braidket.tl import _glue, diagram_table
from conftest import braid_words

CATALAN = [1, 1, 2, 5, 14, 42, 132]


def U(n, i):
    return TLElement.from_diagram(generator_diagram(n, i))


class TestDiagramValidation:
    def test_identity(self):
        assert identity_diagram(3).pairing == (3, 4, 5, 0, 1, 2)

    def test_generator_two_strands(self):
        assert generator_diagram(2, 1).pairing == (1, 0, 3, 2)

    def test_generator_three_strands(self):
        assert generator_diagram(3, 2).pairing == (3, 2, 1, 0, 5, 4)

    def test_index_zero_is_identity(self):
        assert generator_diagram(3, 0) == identity_diagram(3)

    def test_invalid_generator_index(self):
        with pytest.raises(ValueError):
            generator_diagram(3, 7)
        with pytest.raises(ValueError):
            generator_diagram(3, -1)
        with pytest.raises(ValueError):
            generator_diagram(3, 3)

    def test_rejects_crossing_pairing(self):
        with pytest.raises(ValueError):
            TLDiagram(2, (3, 2, 1, 0))

    def test_rejects_fixed_point(self):
        with pytest.raises(ValueError):
            TLDiagram(1, (0, 1))

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            TLDiagram(2, (1, 2, 3, 0))

    @pytest.mark.parametrize(
        "n, pairing, message",
        [
            (0, (), "strand count must be at least 1"),
            (2, (1, 0), "pairing must list 4 points"),
            (2, (5, 0, 3, 2), "point 0 paired outside range: 5"),
        ],
    )
    def test_rejects_malformed_pairing(self, n, pairing, message):
        with pytest.raises(ValueError) as raised:
            TLDiagram(n, pairing)
        assert str(raised.value) == message


class TestMultiplication:
    def test_u_squared(self):
        u = U(2, 1)
        assert multiply(u, u) == u.scale(DELTA)

    def test_jaw_relation(self):
        u1, u2 = U(3, 1), U(3, 2)
        assert multiply(multiply(u1, u2), u1) == u1
        assert multiply(multiply(u2, u1), u2) == u2

    def test_identity_acts_trivially(self):
        u = U(2, 1)
        assert multiply(TLElement.identity(2), u) == u
        assert multiply(u, TLElement.identity(2)) == u

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply(U(2, 1), U(3, 1))

    def test_relations_all_n(self):
        for n in range(2, 7):
            for i in range(1, n):
                u_i = U(n, i)
                assert multiply(u_i, u_i) == u_i.scale(DELTA)
                for j in range(1, n):
                    u_j = U(n, j)
                    if abs(i - j) == 1:
                        assert multiply(multiply(u_i, u_j), u_i) == u_i
                    elif abs(i - j) > 1:
                        assert multiply(u_i, u_j) == multiply(u_j, u_i)

    def test_cleared_jones_identity(self):
        # with e_i = U_i/delta the relation e_i e_j e_i = delta^-2 e_i clears to
        # delta^2 (U_i U_j U_i) = delta^2 U_i for |i-j| = 1
        delta_sq = DELTA * DELTA
        for n in (3, 4):
            for i in range(1, n - 1):
                lhs = multiply(multiply(U(n, i), U(n, i + 1)), U(n, i)).scale(delta_sq)
                assert lhs == U(n, i).scale(delta_sq)

    def test_associativity_on_random_basis_triples(self, rng):
        for n in (3, 4, 5):
            basis = enumerate_basis(n)
            for _ in range(15):
                x, y, z = (TLElement.from_diagram(rng.choice(basis)) for _ in range(3))
                assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def glue_oracle(top, bottom):
    """Union-find gluing: top on points 0..2n-1, bottom on n..3n-1."""
    n = top.n
    ds = DisjointSet(3 * n)
    for p, q in enumerate(top.pairing):
        ds.union(p, q)
    for p, q in enumerate(bottom.pairing):
        ds.union(p + n, q + n)
    outer = [*range(n), *range(2 * n, 3 * n)]
    pairing = [0] * (2 * n)
    for i, p in enumerate(outer):
        for j, q in enumerate(outer):
            if p != q and ds.find(p) == ds.find(q):
                pairing[i] = j
    outer_roots = {ds.find(p) for p in outer}
    loops = len({ds.find(p) for p in range(n, 2 * n)} - outer_roots)
    return TLDiagram(n, tuple(pairing)), loops


class TestGlue:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_union_find_oracle_on_all_basis_pairs(self, n):
        basis = enumerate_basis(n)
        for top in basis:
            for bottom in basis:
                assert _glue(top, bottom) == glue_oracle(top, bottom)

    def test_cache_is_kept(self):
        _glue(identity_diagram(2), generator_diagram(2, 1))
        assert _glue.cache_info().currsize > 0


def closure_oracle(d):
    """Union-find closure count: pairing edges and top k -- bottom n+k."""
    n = d.n
    ds = DisjointSet(2 * n)
    for p, q in enumerate(d.pairing):
        ds.union(p, q)
    for k in range(n):
        ds.union(k, n + k)
    return ds.component_count()


class TestDiagramTable:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_actions_match_glue_on_the_basis(self, n):
        table = diagram_table(n)
        for d in enumerate_basis(n):
            ident = table.intern(d.pairing)
            assert table.pairings[ident] == d.pairing and table.intern(d.pairing) == ident
            assert table.closure_loops(ident) == closure_loop_count(d)
            for i in range(1, n):
                e = table.actions[i].get(ident)
                if e is None:
                    e = table.act(i, ident)
                glued, loops = _glue(d, generator_diagram(n, i))
                assert (table.pairings[e], int(e == ident)) == (glued.pairing, loops)
                # The packed fold's digit bound rests on this: a loop
                # leaves the diagram as it was.
                assert not loops or glued == d

    def test_tables_are_kept_per_strand_count(self):
        assert diagram_table(3) is diagram_table(3)
        assert diagram_table(3).identity == diagram_table(3).intern(identity_diagram(3).pairing)

    @given(braid_words(max_strands=9, max_length=14))
    @settings(max_examples=40, deadline=None)
    def test_folds_intern_only_valid_pairings(self, word):
        # The table validates nothing, so every pairing a fold reaches must
        # still be an involution without crossing arcs.
        table = diagram_table(word.strands)
        before = len(table.pairings)
        bracket_via_trace(word)
        for pairing in table.pairings[before:]:
            TLDiagram(word.strands, pairing)


class TestClosureAndTrace:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_matches_union_find_oracle(self, n):
        for d in enumerate_basis(n):
            assert closure_loop_count(d) == closure_oracle(d)

    def test_closure_and_trace_leave_the_diagram_tables_alone(self, monkeypatch):
        monkeypatch.setattr(tl, "_tables", {})
        for n in (3, 12):
            assert closure_loop_count(generator_diagram(n, 1)) == n - 1
            assert markov_trace(U(n, 2)) == DELTA ** (n - 1)
        assert tl._tables == {}

    def test_identity_closure(self):
        assert closure_loop_count(identity_diagram(3)) == 3

    def test_generator_closure(self):
        assert closure_loop_count(generator_diagram(3, 1)) == 2

    def test_u1u2_closure(self):
        diagram = next(iter(multiply(U(3, 1), U(3, 2)).combo))
        assert closure_loop_count(diagram) == 1

    def test_trace_identity_element(self):
        assert markov_trace(TLElement.identity(2)) == DELTA * DELTA

    def test_trace_generator(self):
        assert markov_trace(U(2, 1)) == DELTA

    def test_trace_linearity(self):
        a_sq = LaurentPoly.monomial(2)
        coeff = LaurentPoly({0: 1, -4: -1})
        elem = TLElement.identity(2).scale(a_sq) + U(2, 1).scale(coeff)
        assert markov_trace(elem) == a_sq * DELTA * DELTA + coeff * DELTA

    def test_trace_property_random_pairs(self, rng):
        for n in (2, 3, 4, 5):
            basis = enumerate_basis(n)
            for _ in range(12):
                x = TLElement.from_diagram(rng.choice(basis))
                y = TLElement.from_diagram(rng.choice(basis))
                assert markov_trace(multiply(x, y)) == markov_trace(multiply(y, x))


class TestBasisEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_catalan_count(self, n):
        basis = enumerate_basis(n)
        assert len(basis) == CATALAN[n]
        assert len(set(basis)) == CATALAN[n]

    def test_small_cases(self):
        assert enumerate_basis(1) == [identity_diagram(1)]
        assert set(enumerate_basis(2)) == {identity_diagram(2), generator_diagram(2, 1)}

    def test_size_guard(self):
        assert len(enumerate_basis(8)) == 1430
        with pytest.raises(SizeLimitError):
            enumerate_basis(9)
        # No strands is invalid input, not a size past the guard.
        with pytest.raises(ValueError) as invalid:
            enumerate_basis(0)
        assert not isinstance(invalid.value, SizeLimitError)

    @given(st.integers(2, 5), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_products_of_generators_stay_in_basis(self, n, seed):
        rng = random.Random(seed)
        basis = set(enumerate_basis(n))
        elem = TLElement.identity(n)
        for _ in range(6):
            elem = multiply(elem, U(n, rng.randint(1, n - 1)))
        assert set(elem.combo) <= basis
