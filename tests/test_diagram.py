import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidket import (
    A,
    A_INV,
    DELTA,
    BraidWord,
    Crossing,
    LaurentPoly,
    LinkDiagram,
    StateSummary,
    add_curl,
    bracket_by_contraction,
    bracket_state_sum,
    bracket_via_trace,
    closure_to_diagram,
    diagram_from_json,
    diagram_to_json,
    enumerate_states,
    exponent_sum,
    mirror_diagram,
    normalize,
    to_jones_variable,
    writhe,
)
from braidket._uf import DisjointSet
from braidket.diagram import (
    MAX_CROSSINGS,
    MAX_STATE_SUM_CROSSINGS,
    _contraction_steps,
    _oversize,
    normalize_bracket,
)
from braidket.errors import ParseError, SizeLimitError
from conftest import add_curl_oracle, braid_words, moved_and_shuffled, random_words

UNKNOT = LinkDiagram((), 1)
TREFOIL_BRACKET = LaurentPoly({5: -1, -3: -1, -7: 1})
TREFOIL_F = LaurentPoly({-4: 1, -12: 1, -16: -1})


def skein_bracket(diagram: LinkDiagram) -> LaurentPoly:
    """Independent oracle: recursive smoothing with on-the-fly loop detection.

    Smooths the first crossing both ways, renaming the joined arc labels;
    joining an arc to itself closes a loop.  No union-find, no state counter.
    """

    def recurse(crossings, loops):
        if not crossings:
            return DELTA ** (loops - 1)
        (s0, s1, s2, s3), _sign = crossings[0]
        rest = crossings[1:]
        total = LaurentPoly.zero()
        for coeff, joins in ((A, ((s0, s1), (s2, s3))), (A_INV, ((s0, s3), (s1, s2)))):
            rename: dict[int, int] = {}

            def resolve(label):
                while label in rename:
                    label = rename[label]
                return label

            closed = loops
            for a, b in joins:
                a, b = resolve(a), resolve(b)
                if a == b:
                    closed += 1
                else:
                    rename[b] = a
            renamed = tuple(
                (tuple(resolve(s) for s in slots), sign) for slots, sign in rest
            )
            total = total + coeff * recurse(renamed, closed)
        return total

    raw = tuple((c.slots, c.sign) for c in diagram.crossings)
    return recurse(raw, diagram.free_loops)


def states_oracle(diagram: LinkDiagram) -> list[StateSummary]:
    """Per-state union-find enumeration: endpoint 4*c + s for slot s of
    crossing c, each arc joins its two slots, each smoothing two pairs."""
    n = len(diagram.crossings)
    first_end: dict[int, int] = {}
    arcs = []
    for p, label in enumerate(s for c in diagram.crossings for s in c.slots):
        if label in first_end:
            arcs.append((first_end.pop(label), p))
        else:
            first_end[label] = p
    states = []
    for mask in range(1 << n):
        ds = DisjointSet(4 * n)
        for p, q in arcs:
            ds.union(p, q)
        a_count = 0
        for c in range(n):
            base = 4 * c
            if mask >> c & 1:
                a_count += 1
                ds.union(base, base + 1)
                ds.union(base + 2, base + 3)
            else:
                ds.union(base, base + 3)
                ds.union(base + 1, base + 2)
        loops = ds.component_count() + diagram.free_loops
        states.append(StateSummary(a_count, n - a_count, loops))
    return states


@st.composite
def moved_closures(draw, max_strands=4, max_length=6, max_moves=3):
    """Closures of 1 to ``max_strands`` strand braids, then up to
    ``max_moves`` curls and mirrors, shuffled crossings and labels, and extra
    free loops."""
    words = braid_words(max_strands=max_strands, max_length=max_length)
    word = draw(st.one_of(st.just(BraidWord(1, ())), words))
    diagram = moved_and_shuffled(draw, closure_to_diagram(word), max_moves)
    return LinkDiagram(diagram.crossings, diagram.free_loops + draw(st.integers(0, 2)))


def contraction_steps_oracle(crossings):
    """The greedy contraction order by set intersections: each next crossing
    shares the most labels with the open ones, ties going to the lowest index."""
    remaining = list(range(len(crossings)))
    frontier: set[int] = set()
    steps = []
    while remaining:
        best = max(remaining, key=lambda i: (len(frontier.intersection(crossings[i])), -i))
        remaining.remove(best)
        for s in crossings[best]:
            frontier ^= {s}
        steps.append((crossings[best], tuple(sorted(frontier))))
    return steps


class TestDiagramValidation:
    def test_open_diagram_rejected(self):
        with pytest.raises(ValueError, match="exactly twice"):
            LinkDiagram((Crossing((0, 1, 2, 3), 1),), 0)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            Crossing((0, 0, 1, 1), 2)

    def test_json_round_trip(self):
        diagram = closure_to_diagram(BraidWord(3, (1, -2, 1)))
        data = json.loads(json.dumps(diagram_to_json(diagram)))
        assert diagram_from_json(data) == diagram

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            diagram_from_json({"crossings": [{"slots": [1, 2]}]})

    def test_empty_json_diagram_is_a_parse_error(self):
        with pytest.raises(ParseError, match="empty"):
            diagram_from_json({"crossings": []})
        with pytest.raises(ParseError, match="empty"):
            diagram_from_json({"crossings": [], "free_loops": 0})

    def test_free_loops_alone_load(self):
        for k in (1, 2):
            assert diagram_from_json({"crossings": [], "free_loops": k}) == LinkDiagram((), k)

    @pytest.mark.parametrize(
        "slots",
        [
            [(1, 2, 1, 2)],
            # the table trefoil with two slots of one crossing swapped
            [(4, 1, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)],
            # a planar kink beside a non-planar component
            [(1, 2, 1, 2), (3, 3, 4, 4)],
        ],
    )
    def test_non_planar_codes_rejected(self, slots):
        with pytest.raises(ValueError, match="not planar"):
            LinkDiagram(tuple(Crossing(s, 1) for s in slots))
        with pytest.raises(ParseError, match="not planar"):
            diagram_from_json({"crossings": [{"slots": list(s), "sign": 1} for s in slots]})

    @given(
        braid_words(max_strands=5, max_length=10),
        st.lists(st.sampled_from(["curl+", "curl-", "mirror"]), max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_closures_curls_and_mirrors_load(self, word, moves):
        diagram = closure_to_diagram(word)
        for move in moves:
            if move == "mirror":
                diagram = mirror_diagram(diagram)
            else:
                diagram = add_curl(diagram, 1 if move == "curl+" else -1)
        assert diagram_from_json(json.loads(json.dumps(diagram_to_json(diagram)))) == diagram


def strand_components(diagram):
    """The link component of each crossing's under and over strand, as the
    class of its arcs: a strand runs from s0 to s2 and from s1 to s3."""
    joined = DisjointSet(max(diagram.arc_labels(), default=0) + 1)
    for c in diagram.crossings:
        joined.union(c.slots[0], c.slots[2])
        joined.union(c.slots[1], c.slots[3])
    return [(joined.find(c.slots[0]), joined.find(c.slots[1])) for c in diagram.crossings]


def with_signs_flipped(diagram, which):
    crossings = tuple(
        Crossing(c.slots, -c.sign if i in which else c.sign) for i, c in enumerate(diagram.crossings)
    )
    return LinkDiagram(crossings, diagram.free_loops)


class TestOrientation:
    """A PD code's signs must come from one orientation of its components."""

    def test_trefoil_with_one_sign_flipped_is_rejected(self):
        message = "crossing 0 with slots (1, 4, 2, 5) has a sign that fits no orientation of the link"
        slots = ([1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3])
        trefoil = diagram_from_json({"crossings": [{"slots": s, "sign": -1} for s in slots]})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            with_signs_flipped(trefoil, {0})
        data = {"crossings": [{"slots": s, "sign": 1 if s == slots[0] else -1} for s in slots]}
        with pytest.raises(ParseError) as caught:
            diagram_from_json(data)
        assert str(caught.value) == f"malformed diagram JSON: {message}"

    @pytest.mark.parametrize("slots, sign", [((1, 1, 2, 2), 1), ((1, 2, 2, 1), -1)])
    def test_a_kink_has_one_sign(self, slots, sign):
        # Reversing a kink's one component reverses both its strands, so its slots fix its sign.
        LinkDiagram((Crossing(slots, sign),))
        with pytest.raises(ValueError, match="^crossing 0 .* fits no orientation"):
            LinkDiagram((Crossing(slots, -sign),))

    @given(moved_closures(max_strands=7, max_length=20, max_moves=3))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_closures_and_their_flipped_signs(self, diagram):
        # moved_closures has loaded the curled, mirrored and shuffled closure.
        pairs = strand_components(diagram)
        components = {k for pair in pairs for k in pair}
        if len(components) == 1:
            for i in range(len(pairs)):
                with pytest.raises(ValueError, match=f"^crossing {i} .* fits no orientation"):
                    with_signs_flipped(diagram, {i})
        elif len(components) == 2:
            # Reversing one component flips exactly the crossings between the two.
            between = {i for i, (under, over) in enumerate(pairs) if under != over}
            with_signs_flipped(diagram, between)
            if len(between) > 1:
                for i in between:
                    with pytest.raises(ValueError, match="fits no orientation"):
                        with_signs_flipped(diagram, {i})


class TestEnumerateStates:
    def test_bare_unknot(self):
        assert enumerate_states(UNKNOT) == [StateSummary(0, 0, 1)]

    def test_positive_curl(self):
        states = set(enumerate_states(add_curl(UNKNOT, 1)))
        assert states == {StateSummary(1, 0, 2), StateSummary(0, 1, 1)}

    def test_trefoil_state_count(self):
        states = enumerate_states(closure_to_diagram(BraidWord(2, (1, 1, 1))))
        assert len(states) == 8
        assert all(s.a_count + s.b_count == 3 and s.loops >= 1 for s in states)

    def test_size_guard(self):
        word = BraidWord(2, (1,) * 29)
        with pytest.raises(SizeLimitError):
            enumerate_states(closure_to_diagram(word))

    def test_free_loop_guard(self):
        k = MAX_CROSSINGS
        assert bracket_state_sum(LinkDiagram((), k)) == DELTA ** (k - 1)
        with pytest.raises(SizeLimitError, match="free loops"):
            enumerate_states(LinkDiagram((), k + 1))

    @given(moved_closures(max_strands=5, max_length=12, max_moves=2))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_matches_union_find_oracle(self, diagram):
        # Up to 14 crossings, so the walk's undo, its loop count and its
        # B-before-A order all show in the state list.
        assert enumerate_states(diagram) == states_oracle(diagram)

    def test_uses_no_union_find(self, monkeypatch):
        diagram = add_curl(closure_to_diagram(BraidWord(3, (1, -2, 1, 2))), -1)

        def refuse(*args):
            raise AssertionError("enumerate_states used union-find")

        for name in ("find", "union", "component_count"):
            monkeypatch.setattr(DisjointSet, name, refuse)
        assert len(enumerate_states(diagram)) == 32


class TestBracketStateSum:
    def test_unknot(self):
        assert bracket_state_sum(UNKNOT) == LaurentPoly.one()

    def test_two_component_unlink(self):
        assert bracket_state_sum(LinkDiagram((), 2)) == DELTA

    def test_extra_loop_multiplies_by_delta(self):
        base = closure_to_diagram(BraidWord(2, (1, 1, 1)))
        with_loop = LinkDiagram(base.crossings, base.free_loops + 1)
        assert bracket_state_sum(with_loop) == DELTA * bracket_state_sum(base)

    def test_trefoil(self):
        diagram = closure_to_diagram(BraidWord(2, (1, 1, 1)))
        assert bracket_state_sum(diagram) == TREFOIL_BRACKET
        assert skein_bracket(diagram) == TREFOIL_BRACKET

    def test_table_pd_code_matches_published_jones(self):
        # 3_1 from the standard tables: slots counterclockwise from the
        # incoming under-strand; V should be -t^-4 + t^-3 + t^-1.
        crossings = tuple(
            Crossing(slots, -1)
            for slots in ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))
        )
        _, v = normalize(LinkDiagram(crossings, 0))
        assert str(v) == "-t^-4 + t^-3 + t^-1"

    def test_matches_skein_oracle_on_random_closures(self):
        for word in random_words(9, 30, max_strands=4, max_length=6):
            diagram = closure_to_diagram(word)
            assert bracket_state_sum(diagram) == skein_bracket(diagram)

    def test_empty_diagram_rejected(self):
        with pytest.raises(ValueError):
            bracket_state_sum(LinkDiagram((), 0))


class TestBracketByContraction:
    @given(moved_closures())
    @settings(max_examples=120, deadline=None)
    def test_matches_state_sum(self, diagram):
        assert bracket_by_contraction(diagram) == bracket_state_sum(diagram)

    @pytest.mark.parametrize(
        "diagram",
        [UNKNOT, add_curl(UNKNOT, 1), add_curl(UNKNOT, -1), LinkDiagram((), MAX_CROSSINGS)],
        ids=["unknot", "curl+", "curl-", "free-loop-edge"],
    )
    def test_edge_diagrams(self, diagram):
        assert bracket_by_contraction(diagram) == bracket_state_sum(diagram)

    def test_acceptance_diagrams(self):
        # The diagrams of acceptance criteria 02 (curled) and 04.
        diagrams = []
        for word in random_words(202, 50, max_strands=4, max_length=6):
            base = closure_to_diagram(word)
            diagrams += [base, add_curl(base, 1), add_curl(base, -1)]
        diagrams += [closure_to_diagram(w) for w in random_words(404, 200, max_length=8)]
        for diagram in diagrams:
            assert bracket_by_contraction(diagram) == bracket_state_sum(diagram)

    def test_guards_match_the_state_sum(self):
        # The free-loop guard is shared; the brute-force oracle, which pays
        # 2^N, stops at fewer crossings than the contraction.
        too_loopy = LinkDiagram((), MAX_CROSSINGS + 1)
        with pytest.raises(SizeLimitError) as contracted:
            bracket_by_contraction(too_loopy)
        with pytest.raises(SizeLimitError) as summed:
            bracket_state_sum(too_loopy)
        assert str(contracted.value) == str(summed.value)
        word = BraidWord(2, (1,) * (MAX_STATE_SUM_CROSSINGS + 1))
        past_the_oracle = closure_to_diagram(word)
        assert bracket_by_contraction(past_the_oracle) == bracket_via_trace(word)
        too_many = closure_to_diagram(BraidWord(2, (1,) * (MAX_CROSSINGS + 1)))
        for diagram in (past_the_oracle, too_many):
            with pytest.raises(SizeLimitError, match=f"the {MAX_STATE_SUM_CROSSINGS}-crossing"):
                bracket_state_sum(diagram)
        with pytest.raises(SizeLimitError, match=f"the {MAX_CROSSINGS}-crossing"):
            bracket_by_contraction(too_many)
        with pytest.raises(ValueError, match="empty"):
            bracket_by_contraction(LinkDiagram((), 0))

    def test_state_sum_guard_at_its_bound(self):
        assert _oversize(MAX_STATE_SUM_CROSSINGS, 0, MAX_STATE_SUM_CROSSINGS) is None
        assert _oversize(MAX_STATE_SUM_CROSSINGS + 1, 0, MAX_STATE_SUM_CROSSINGS) == (
            f"{MAX_STATE_SUM_CROSSINGS + 1} crossings exceeds the "
            f"{MAX_STATE_SUM_CROSSINGS}-crossing guard"
        )

    @pytest.mark.parametrize("strands, free_loops", [(2, 0), (3, 0), (8, 0), (3, MAX_CROSSINGS)])
    def test_widest_packing_agrees_with_the_trace(self, strands, free_loops):
        # The packed width grows with the crossings and the free loops, so it
        # is widest at the guards, past the oracle's reach.
        rng = random.Random(strands)
        letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(MAX_CROSSINGS)]
        word = BraidWord(strands, tuple(letters))
        closure = closure_to_diagram(word)
        diagram = LinkDiagram(closure.crossings, closure.free_loops + free_loops)
        assert bracket_by_contraction(diagram) == bracket_via_trace(word) * DELTA**free_loops

    def test_eighteen_crossings_agree_with_the_trace_quickly(self):
        rng = random.Random(18)
        word = BraidWord(4, tuple(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(18)))
        diagram = closure_to_diagram(word)
        start = time.perf_counter()
        bracket = bracket_by_contraction(diagram)
        elapsed = time.perf_counter() - start
        assert bracket == bracket_via_trace(word)
        assert elapsed < 1.0, f"{elapsed:.2f} s"


class TestContractionSteps:
    """The counted greedy order equals the set-intersection oracle, ties included."""

    def test_seeded_closures_and_shuffled_codes(self):
        rng = random.Random(28)
        for word in random_words(28, 150, max_strands=9, max_length=MAX_CROSSINGS):
            crossings = [c.slots for c in closure_to_diagram(word).crossings]
            shuffled = rng.sample(crossings, len(crossings))
            labels = sorted({s for slots in crossings for s in slots})
            new = dict(zip(labels, rng.sample(range(3 * len(labels) + 1), len(labels))))
            relabeled = [tuple(new[s] for s in slots) for slots in shuffled]
            for code in (crossings, shuffled, relabeled):
                code = tuple(code)
                assert _contraction_steps(code) == contraction_steps_oracle(code)

    @given(moved_closures())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_curled_mirrored_and_shuffled_codes(self, diagram):
        code = tuple(c.slots for c in diagram.crossings)
        assert _contraction_steps(code) == contraction_steps_oracle(code)

    @given(moved_closures())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_a_width_stops_the_sweep_once_it_is_exceeded(self, diagram):
        code = tuple(c.slots for c in diagram.crossings)
        steps = _contraction_steps(code)
        widest = max((len(frontier) for _, frontier in steps), default=0)
        for width in range(widest + 2):
            assert _contraction_steps(code, width) == (steps if widest <= width else None)


class TestWrithe:
    def test_positive_trefoil(self):
        assert writhe(closure_to_diagram(BraidWord(2, (1, 1, 1)))) == 3

    def test_cancelling_pair(self):
        assert writhe(closure_to_diagram(BraidWord(2, (1, -1)))) == 0

    def test_balanced_word(self):
        assert writhe(closure_to_diagram(BraidWord(3, (1, -2, 1, -2)))) == 0


class TestNormalize:
    def test_curled_unknot_normalizes_to_one(self):
        f, v = normalize(add_curl(UNKNOT, 1))
        assert f == LaurentPoly.one()
        assert str(v) == "1"

    def test_trefoil_f_and_v(self):
        f, v = normalize(closure_to_diagram(BraidWord(2, (1, 1, 1))))
        assert f == TREFOIL_F
        assert v == to_jones_variable(TREFOIL_F)
        assert str(v) == "t + t^3 - t^4"


class TestAddCurl:
    def test_unknot_curls(self):
        assert bracket_state_sum(add_curl(UNKNOT, 1)) == LaurentPoly.monomial(3, -1)
        assert bracket_state_sum(add_curl(UNKNOT, -1)) == LaurentPoly.monomial(-3, -1)

    def test_writhe_shifts(self):
        diagram = closure_to_diagram(BraidWord(2, (1, 1)))
        assert writhe(add_curl(diagram, 1)) == writhe(diagram) + 1
        assert writhe(add_curl(diagram, -1)) == writhe(diagram) - 1

    def test_bracket_multiplier_on_random_closures(self):
        for word in random_words(13, 20, max_strands=4, max_length=5):
            diagram = closure_to_diagram(word)
            base = bracket_state_sum(diagram)
            assert bracket_state_sum(add_curl(diagram, 1)) == LaurentPoly.monomial(3, -1) * base
            assert bracket_state_sum(add_curl(diagram, -1)) == LaurentPoly.monomial(-3, -1) * base

    def test_f_unchanged(self):
        for word in random_words(17, 10, max_strands=3, max_length=5):
            diagram = closure_to_diagram(word)
            f, _ = normalize(diagram)
            f_up, _ = normalize(add_curl(diagram, 1))
            f_down, _ = normalize(add_curl(diagram, -1))
            assert f == f_up == f_down

    def test_empty_diagram_rejected(self):
        with pytest.raises(ValueError):
            add_curl(LinkDiagram((), 0), 1)

    def test_zero_sign_rejected(self):
        with pytest.raises(ValueError, match=r"^curl sign must be \+1 or -1$"):
            add_curl(UNKNOT, 0)

    @given(
        braid_words(min_strands=1, max_strands=6, max_length=20),
        st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_two_path_oracle(self, word, signs, mirrored):
        # Untouched strands close to free loops and the empty word to bare
        # loops only; each curl after the first curls a curled diagram.
        diagram = closure_to_diagram(word)
        if mirrored:
            diagram = mirror_diagram(diagram)
        for sign in signs:
            curled = add_curl(diagram, sign)
            assert curled == add_curl_oracle(diagram, sign)
            diagram = curled


class TestMirrorAndChirality:
    def test_mirror_inverts_variable(self):
        for word in random_words(21, 15, max_strands=4, max_length=6):
            diagram = closure_to_diagram(word)
            mirrored = mirror_diagram(diagram)
            assert bracket_state_sum(mirrored) == bracket_state_sum(diagram).invert_variable()

    def test_mirror_inverts_f(self):
        diagram = closure_to_diagram(BraidWord(2, (1, 1, 1)))
        f, _ = normalize(diagram)
        f_mirror, _ = normalize(mirror_diagram(diagram))
        assert f_mirror == f.invert_variable()

    def test_trefoil_chirality(self):
        f, _ = normalize(closure_to_diagram(BraidWord(2, (1, 1, 1))))
        assert f != f.invert_variable()


class TestCrossRepresentation:
    def test_state_sum_equals_trace_bracket(self):
        for word in random_words(29, 60, max_strands=4, max_length=8):
            assert bracket_state_sum(closure_to_diagram(word)) == bracket_via_trace(word)

    @given(
        braid_words(max_strands=4, max_length=7),
        st.lists(st.sampled_from(["rotate", "relabel", "curl+", "curl-", "mirror"]), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_diagram_moves_keep_f_and_the_trace_bracket(self, word, moves, rnd):
        """Closure of a braid, then moves: the state sum follows the trace bracket."""
        diagram = closure_to_diagram(word)
        bracket = bracket_via_trace(word)
        f, _ = normalize_bracket(bracket, exponent_sum(word))
        for move in moves:
            if move == "rotate":
                # Two slots on keeps the under-strand on slots 0 and 2.
                crossings = [
                    Crossing(c.slots[2:] + c.slots[:2], c.sign) if rnd.random() < 0.5 else c
                    for c in diagram.crossings
                ]
                rnd.shuffle(crossings)
                diagram = LinkDiagram(tuple(crossings), diagram.free_loops)
            elif move == "relabel":
                labels = diagram.arc_labels()
                new = dict(zip(labels, rnd.sample(range(10 * len(labels) + 1), len(labels))))
                crossings = tuple(
                    Crossing(tuple(new[s] for s in c.slots), c.sign) for c in diagram.crossings
                )
                diagram = LinkDiagram(crossings, diagram.free_loops)
            elif move == "mirror":
                diagram = mirror_diagram(diagram)
                bracket, f = bracket.invert_variable(), f.invert_variable()
            else:
                sign = 1 if move == "curl+" else -1
                diagram = add_curl(diagram, sign)
                bracket = LaurentPoly.monomial(3 * sign, -1) * bracket
        assert bracket_state_sum(diagram) == bracket
        assert normalize(diagram)[0] == f

    def test_two_letter_unknot_closure(self):
        diagram = closure_to_diagram(BraidWord(3, (1, 2)))
        assert bracket_state_sum(diagram) == LaurentPoly.monomial(6)
