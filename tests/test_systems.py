from fractions import Fraction

import pytest

from nncpoly import oracle
from nncpoly.errors import InvalidVector, ScaleLimitExceeded
from nncpoly.oracle import full_gen_contains, gen_contains
from nncpoly.systems import ConKind, Constraint, GenKind, Generator, con_contains


def test_constraint_normalizes_on_build():
    assert Constraint((2, -4, 6), ConKind.NONSTRICT).row == (1, -2, 3)


def test_equality_rows_get_canonical_sign():
    a = Constraint((0, -2, 4), ConKind.EQUALITY)
    b = Constraint((0, 2, -4), ConKind.EQUALITY)
    assert a.row == b.row == (0, 1, -2)
    # inequalities keep their orientation
    assert Constraint((0, -2, 4), ConKind.NONSTRICT).row == (0, -1, 2)


def test_generator_slot0_rules():
    assert Generator((0, -2, 4), GenKind.LINE).row == (0, 1, -2)
    assert Generator((2, 4, 6), GenKind.POINT).row == (1, 2, 3)
    with pytest.raises(InvalidVector):
        Generator((1, 1), GenKind.RAY)
    with pytest.raises(InvalidVector):
        Generator((1, 0, 0), GenKind.LINE)
    with pytest.raises(InvalidVector):
        Generator((0, 1), GenKind.POINT)
    with pytest.raises(InvalidVector):
        Generator((0, 2), GenKind.CLOSURE_POINT)


def test_all_zero_rows_rejected():
    with pytest.raises(InvalidVector):
        Constraint((0, 0), ConKind.NONSTRICT)
    for kind in ConKind:
        with pytest.raises(InvalidVector):
            Constraint((0, 0, 0), kind)
    for kind in (GenKind.LINE, GenKind.RAY):
        with pytest.raises(InvalidVector):
            Generator((0, 0, 0), kind)


@pytest.mark.parametrize("bad", [True, False, 1.0, Fraction(1, 2), Fraction(2, 1)])
def test_non_integer_entries_rejected_at_the_boundary(bad):
    # normalize() does not check entry types: building the atom does
    for kind in ConKind:
        with pytest.raises(InvalidVector):
            Constraint((1, bad, 2), kind)
    for kind in GenKind:
        row = (0, bad, 2) if kind in (GenKind.LINE, GenKind.RAY) else (1, bad, 2)
        with pytest.raises(InvalidVector):
            Generator(row, kind)


def test_dim_property():
    c = Constraint((1, 2), ConKind.NONSTRICT)
    g = Generator((1, 2, 3), GenKind.POINT)
    assert c.dim == 1 and g.dim == 2


def test_con_contains_respects_strictness():
    cs = [
        Constraint((-1, 1), ConKind.NONSTRICT),  # x >= 1
        Constraint((3, -1), ConKind.STRICT),  # x < 3
    ]
    assert con_contains(cs, [1])
    assert con_contains(cs, [Fraction(5, 2)])
    assert not con_contains(cs, [3])
    assert not con_contains(cs, [0])


def test_con_contains_equality():
    cs = [Constraint((0, 1, -1), ConKind.EQUALITY)]  # x = y
    assert con_contains(cs, [2, 2])
    assert not con_contains(cs, [2, 1])


def test_full_gen_contains_is_the_closure_test():
    gens = [
        Generator((1, 1), GenKind.POINT),
        Generator((1, 3), GenKind.CLOSURE_POINT),
    ]
    assert full_gen_contains(gens, [3])
    assert gen_contains(gens, [1])
    assert gen_contains(gens, [2])
    assert not gen_contains(gens, [3])
    assert not gen_contains(gens, [Fraction(7, 2)])


def test_gen_contains_with_rays():
    gens = [
        Generator((1, 0, 0), GenKind.POINT),
        Generator((0, 1, 1), GenKind.RAY),
    ]
    assert gen_contains(gens, [5, 5])
    assert not gen_contains(gens, [5, 4])


def test_fourier_motzkin_guard_stops_the_step_it_overflows(monkeypatch):
    # x is eliminated first: 8 rows bound it from below and 8 from above,
    # so the step would build 64 rows (54 distinct) if left to finish
    lower = [((Fraction(1), Fraction(i)), Fraction(i * i), "ge") for i in range(1, 9)]
    upper = [((Fraction(-1), Fraction(-j)), Fraction(j**3), "ge") for j in range(1, 9)]
    assert oracle.feasible(lower + upper, 2)

    built = 0
    norm = oracle._norm

    def counting_norm(*row):
        nonlocal built
        built += 1
        return norm(*row)

    monkeypatch.setitem(oracle._LIMITS, "fm_rows", 20)
    monkeypatch.setattr(oracle, "_norm", counting_norm)
    with pytest.raises(ScaleLimitExceeded, match="fm_rows 21 > 20"):
        oracle.feasible(lower + upper, 2)
    built -= len(lower + upper)  # the input rows are normalized first
    assert built < 8 * 8
    assert built <= 21 + 8  # the first row over the limit, plus duplicates
