"""The value classes behave as the frozen dataclasses they replace did.

Every repr text and validation message below was recorded from the
dataclass versions of these classes, except the repr of ``SymbolicMatrix``
(which printed its dense rows).  Unlike the dataclasses, the classes with
array fields compare those arrays by value.
"""

import copy
import pickle

import numpy as np
import pytest

from braidket import (
    A,
    A_INV,
    BraidWord,
    Crossing,
    LaurentPoly,
    LinkDiagram,
    PhaseLossWitness,
    QState,
    ShotRecord,
    StateSummary,
    SymbolicMatrix,
    TLDiagram,
    TLElement,
    UnitarySetup,
    generator_diagram,
    unitary_generators,
)
from braidket._record import Record, set_field
from braidket.verify import SuiteResult

TREFOIL = LinkDiagram((Crossing((1, 5, 2, 4), 1), Crossing((3, 1, 4, 6), 1), Crossing((5, 3, 6, 2), 1)))
CUP = TLDiagram(2, (1, 0, 3, 2))
#: A one-amplitude state, whose array compares to a copy as one bool.
AMPLITUDES = np.array([1j])

#: One instance of each class, its fields in order, and its repr.
CASES = [
    (BraidWord(3, (1, -2, 1)), (3, (1, -2, 1)), "BraidWord(strands=3, letters=(1, -2, 1))"),
    (Crossing((1, 2, 2, 1), -1), ((1, 2, 2, 1), -1), "Crossing(slots=(1, 2, 2, 1), sign=-1)"),
    (
        TREFOIL,
        (TREFOIL.crossings, 0),
        "LinkDiagram(crossings=(Crossing(slots=(1, 5, 2, 4), sign=1), Crossing(slots=(3, 1, 4, 6), "
        "sign=1), Crossing(slots=(5, 3, 6, 2), sign=1)), free_loops=0)",
    ),
    (StateSummary(2, 1, 3), (2, 1, 3), "StateSummary(a_count=2, b_count=1, loops=3)"),
    (CUP, (2, (1, 0, 3, 2)), "TLDiagram(n=2, pairing=(1, 0, 3, 2))"),
    (
        TLElement(2, {CUP: A, generator_diagram(2, 0): LaurentPoly.zero()}),
        (2, {CUP: A}),
        "TLElement(n=2, combo={TLDiagram(n=2, pairing=(1, 0, 3, 2)): LaurentPoly(A^1)})",
    ),
    (
        SuiteResult("tl-relations", False, "U_1^2 != delta U_1 in n=2"),
        ("tl-relations", False, "U_1^2 != delta U_1 in n=2"),
        "SuiteResult(name='tl-relations', passed=False, detail='U_1^2 != delta U_1 in n=2')",
    ),
    (QState(AMPLITUDES), (AMPLITUDES,), "QState(amplitudes=array([0.+1.j]))"),
    (ShotRecord(3, (1, 2), 7), (3, (1, 2), 7), "ShotRecord(shots=3, counts=(1, 2), seed=7)"),
    (
        PhaseLossWitness(BraidWord(3, (1,)), BraidWord(3, (-1,)), 0.0, 0.5, 1 + 0j, 0.5j),
        (BraidWord(3, (1,)), BraidWord(3, (-1,)), 0.0, 0.5, 1 + 0j, 0.5j),
        "PhaseLossWitness(word_a=BraidWord(strands=3, letters=(1,)), word_b=BraidWord(strands=3, "
        "letters=(-1,)), moduli_gap=0.0, bracket_gap=0.5, bracket_a=(1+0j), bracket_b=0.5j)",
    ),
    (
        SymbolicMatrix(2, {(0, 1): A, (1, 0): -A_INV}),
        (2, {(0, 1): A, (1, 0): -A_INV}),
        "SymbolicMatrix(dim=2, entries={(0, 1): LaurentPoly(A^1), (1, 0): LaurentPoly(-A^-1)})",
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]
FROZEN = [case for case in CASES if not isinstance(case[0], TLElement)]
FROZEN_IDS = [type(case[0]).__name__ for case in FROZEN]
#: Classes with an ndarray or dict field, which therefore have no hash.
UNHASHABLE = (QState, SymbolicMatrix)


@pytest.mark.parametrize("value, fields, text", CASES, ids=IDS)
class TestAsDataclasses:
    def test_fields_and_repr(self, value, fields, text):
        assert tuple(getattr(value, name) for name in type(value).__match_args__) == fields
        assert repr(value) == text

    def test_equal_only_to_the_same_class(self, value, fields, text):
        cls = type(value)
        assert value == cls(*fields) and not value != cls(*fields)
        assert value != fields and value.__eq__(fields) is NotImplemented
        assert value != object()

        class Sub(cls):
            __slots__ = ()

        assert value != Sub(*fields) and Sub(*fields) != value
        assert repr(Sub(*fields)) == Sub.__qualname__ + text[len(cls.__name__) :]

    def test_copy_and_pickle_round_trip(self, value, fields, text):
        for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(other) is type(value) and other == value and repr(other) == text


@pytest.mark.parametrize("value, fields, text", FROZEN, ids=FROZEN_IDS)
def test_frozen_and_hashed_by_field_tuple(value, fields, text):
    if isinstance(value, UNHASHABLE):
        with pytest.raises(TypeError, match="^unhashable type"):
            hash(value)
    else:
        assert hash(value) == hash(fields)
    name = type(value).__match_args__[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(value, name, 1)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 1
    assert repr(value) == text


def test_tl_element_is_mutable_and_unhashable():
    element = TLElement(2)
    assert element == TLElement(n=2, combo={}) and repr(element) == "TLElement(n=2, combo={})"
    with pytest.raises(TypeError, match="unhashable type: 'TLElement'"):
        hash(element)
    element.n = 3
    element.combo[CUP] = A
    assert (element.n, element.combo) == (3, {CUP: A})
    del element.combo
    with pytest.raises(AttributeError):
        element.combo


def test_keyword_and_default_construction():
    assert BraidWord(strands=2, letters=(1,)) == BraidWord(2, (1,))
    assert Crossing(sign=1, slots=(1, 1, 2, 2)) == Crossing((1, 1, 2, 2), 1)
    assert LinkDiagram(TREFOIL.crossings) == LinkDiagram(crossings=TREFOIL.crossings, free_loops=0)
    assert LinkDiagram((), 2).free_loops == 2
    assert StateSummary(loops=1, a_count=0, b_count=2) == StateSummary(0, 2, 1)
    assert TLDiagram(pairing=(1, 0), n=1) == TLDiagram(1, (1, 0))
    assert TLElement(2).combo == {} and TLElement(n=2, combo={CUP: A}).combo == {CUP: A}
    assert SuiteResult("x", True) == SuiteResult(passed=True, name="x", detail="")
    assert QState(amplitudes=[1.0]).amplitudes.dtype == complex
    assert ShotRecord(seed=1, shots=2, counts=(2,)) == ShotRecord(2, (2,), 1)
    assert SymbolicMatrix(entries={(0, 0): A, (1, 1): LaurentPoly.zero()}, dim=2).entries == {(0, 0): A}
    witness = PhaseLossWitness(bracket_b=0j, bracket_a=1j, bracket_gap=1.0, moduli_gap=0.0, word_b=2, word_a=1)
    assert witness == PhaseLossWitness(1, 2, 0.0, 1.0, 1j, 0j)


def test_unitary_setup_rebuilds_its_tables():
    # The copies and the rebuilt setups equal the setup, and their arrays
    # are compared byte for byte too.
    setup = unitary_generators(0.2)
    assert UnitarySetup.__match_args__ == ("theta", "a", "delta", "u1", "u2", "factors")
    assert setup == setup and not setup != setup
    assert setup.__eq__(0.2) is NotImplemented and setup != object()
    arguments = {name: getattr(setup, name) for name in UnitarySetup.__match_args__}
    rebuilt = (
        copy.copy(setup),
        copy.deepcopy(setup),
        pickle.loads(pickle.dumps(setup)),
        UnitarySetup(*arguments.values()),
        UnitarySetup(**arguments),
    )
    arrays = (setup.u1, setup.u2, setup.factors, *setup.tables)
    for other in rebuilt:
        assert type(other) is UnitarySetup and other == setup and not other != setup
        assert (other.theta, other.a, other.delta) == (0.2, setup.a, setup.delta)
        for mine, theirs in zip(arrays, (other.u1, other.u2, other.factors, *other.tables), strict=True):
            assert (theirs.shape, theirs.tobytes()) == (mine.shape, mine.tobytes())
        assert other.tables[0] is other.factors
        assert not any(table.flags.writeable for table in other.tables)
    head = f"UnitarySetup(theta=0.2, a={setup.a!r}, delta={setup.delta!r}, u1=array("
    assert repr(setup).startswith(head) and "tables" not in repr(setup)
    assert repr(setup).endswith(f", factors={setup.factors!r})")
    with pytest.raises(AttributeError, match="^cannot assign to field 'factors'$"):
        setup.factors = setup.factors
    with pytest.raises(AttributeError, match="^cannot delete field 'tables'$"):
        del setup.tables


def test_array_fields_compare_by_value():
    pair = QState(np.array([0.6, 0.8]))
    assert pair == QState(np.array([0.6, 0.8])) and not pair != QState([0.6, 0.8])
    assert pair != QState(np.array([0.8, 0.6])) and pair != QState(np.array([0.6, 0.8j]))
    assert pair != QState(np.array([[0.6, 0.8]])) and pair != QState(np.array([1.0]))
    for other in (copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
        assert other == pair and repr(other) == "QState(amplitudes=array([0.6+0.j, 0.8+0.j]))"
    setup = unitary_generators(0.2)
    assert setup == copy.copy(setup) == unitary_generators.__wrapped__(0.2)
    assert setup != unitary_generators(0.3) and setup != unitary_generators(-0.2)
    with pytest.raises(TypeError, match="^unhashable type"):
        hash(setup)


class Doubled(Record):
    __slots__ = ("value", "double")
    _derived = ("double",)

    def __init__(self, value):
        set_field(self, "value", value)
        set_field(self, "double", 2 * value)


def test_derived_slots_are_skipped():
    item = Doubled(3)
    assert Doubled.__match_args__ == ("value",) and item.double == 6
    assert repr(item) == "Doubled(value=3)" and hash(item) == hash((3,))
    assert item == Doubled(3) and item != Doubled(4)
    for other in (copy.copy(item), copy.deepcopy(item), pickle.loads(pickle.dumps(item))):
        assert (type(other), other, other.double) == (Doubled, item, 6)
    # Equality reads the fields alone, so a derived slot that differs does not count.
    odd = Doubled(3)
    set_field(odd, "double", 7)
    assert odd == item and repr(odd) == repr(item)
    assert len(repr(unitary_generators(0.2))) < 1000


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BraidWord(0, ()), "strand count must be at least 1"),
        (lambda: BraidWord(3, (1, 3)), "letter 3 invalid for 3 strands (need 1 <= |letter| <= 2)"),
        (lambda: BraidWord(3, (0,)), "letter 0 invalid for 3 strands (need 1 <= |letter| <= 2)"),
        (lambda: BraidWord(3, (-3,)), "letter -3 invalid for 3 strands (need 1 <= |letter| <= 2)"),
        (lambda: Crossing((1, 2, 3), 1), "a crossing has exactly four slots"),
        (lambda: Crossing((1, 2, 2, 1), 0), "crossing sign must be +1 or -1, got 0"),
        (lambda: LinkDiagram((), -1), "free loop count cannot be negative"),
        (
            lambda: LinkDiagram((Crossing((1, 2, 3, 4), 1),)),
            "arc labels must occur exactly twice; bad: [1, 2, 3, 4]",
        ),
        (
            lambda: LinkDiagram((Crossing((1, 2, 1, 2), 1),)),
            "the PD code is not planar (1 faces, 1 components)",
        ),
        (lambda: TLDiagram(0, ()), "strand count must be at least 1"),
        (lambda: TLDiagram(2, (1, 0, 3)), "pairing must list 4 points"),
        (lambda: TLDiagram(2, (1, 0, 3, 4)), "pairing is not an involution"),
        (lambda: TLDiagram(2, (0, 1, 3, 2)), "point 0 paired with itself"),
        (lambda: TLDiagram(2, (1, 2, 3, 0)), "pairing is not an involution"),
        (lambda: TLDiagram(2, (3, 2, 1, 0)), "pairing has crossing arcs"),
        (lambda: TLElement(3, {CUP: A}), "all diagrams must share the element's strand count"),
        (lambda: QState(np.array([1, 1])), "state norm^2 = 2.0 deviates from 1"),
        (lambda: QState([np.nan]), "state norm^2 = nan deviates from 1"),
        (lambda: ShotRecord(3, (1, 1), 0), "counts must sum to the shot total"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LinkDiagram(), "LinkDiagram.__init__() missing 1 required positional argument: 'crossings'"),
        (lambda: BraidWord(3), "BraidWord.__init__() missing 1 required positional argument: 'letters'"),
        (lambda: TLElement(), "TLElement.__init__() missing 1 required positional argument: 'n'"),
        (
            lambda: StateSummary(1, 2),
            "StateSummary.__init__() missing 1 required positional argument: 'loops'",
        ),
        (lambda: BraidWord(3, (), 4), "BraidWord.__init__() takes 3 positional arguments but 4 were given"),
        (lambda: LinkDiagram((), 1, x=2), "LinkDiagram.__init__() got an unexpected keyword argument 'x'"),
        (lambda: QState(), "QState.__init__() missing 1 required positional argument: 'amplitudes'"),
        (lambda: ShotRecord(1, (1,)), "ShotRecord.__init__() missing 1 required positional argument: 'seed'"),
        (lambda: SuiteResult("x"), "SuiteResult.__init__() missing 1 required positional argument: 'passed'"),
        (
            lambda: PhaseLossWitness(1, 2, 3, 4, 5),
            "PhaseLossWitness.__init__() missing 1 required positional argument: 'bracket_b'",
        ),
        (
            lambda: UnitarySetup(0.2, 1, 2, 3, 4),
            "UnitarySetup.__init__() missing 1 required positional argument: 'factors'",
        ),
    ],
)
def test_signatures(make, message):
    with pytest.raises(TypeError) as caught:
        make()
    assert str(caught.value) == message
