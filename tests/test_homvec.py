import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nncpoly.errors import CombineError, DimensionError, InvalidVector
from nncpoly.homvec import (
    check_vector,
    combine_with_products,
    eliminate,
    normalize,
    rational_point_row,
    scalar_prod,
)


def test_normalize_divides_by_gcd():
    assert normalize((4, -6, 2)) == (2, -3, 1)


def test_normalize_keeps_orientation_by_default():
    assert normalize((0, -4, 2)) == (0, -2, 1)


def test_normalize_bidirectional_flips_to_positive_lead():
    assert normalize((0, -4, 2), bidirectional=True) == (0, 2, -1)
    assert normalize((-3, 0, 9), bidirectional=True) == (1, 0, -3)
    assert normalize((0, 0, -5), bidirectional=True) == (0, 0, 1)


def test_scalar_prod():
    assert scalar_prod((1, 2, 3), (2, 1, 0)) == 4
    assert scalar_prod((2, -1), (1, 2)) == 0


def test_normalize_rejects_short_and_zero_rows():
    for bad in ((), (5,), (0, 0, 0)):
        with pytest.raises(InvalidVector):
            normalize(bad)
        with pytest.raises(InvalidVector):
            normalize(bad, bidirectional=True)


def test_normalize_returns_a_primitive_row_itself():
    row = (3, -4, 5)
    assert normalize(row) is row
    assert normalize([6, -8, 10]) == row


def test_scalar_prod_rejects_unequal_lengths():
    with pytest.raises(DimensionError):
        scalar_prod((1, 2), (1, 2, 3))


def test_check_vector_rejects_bad_rows():
    with pytest.raises(InvalidVector):
        check_vector(())
    with pytest.raises(InvalidVector):
        check_vector((0, 0))
    with pytest.raises(DimensionError):
        check_vector((1, 0), 3)
    check_vector((1, 0), 1)


def test_combine_lands_on_hyperplane():
    # points 0 and 4 against x <= 2 meet at 2
    c, gp, gm = (2, -1), (1, 0), (1, 4)
    assert combine_with_products(gp, gm, scalar_prod(c, gp), scalar_prod(c, gm)) == (1, 2)


def test_combine_requires_opposite_signs():
    with pytest.raises(CombineError):
        combine_with_products((1, 0), (1, 4), 2, 2)
    with pytest.raises(CombineError):
        combine_with_products((1, 4), (1, 0), 0, -1)
    # an antiparallel pair combines to the zero row, which is refused
    with pytest.raises(CombineError):
        combine_with_products((1, 1), (-1, -1), 1, -1)


def test_eliminate_zeroes_pivot_product():
    assert eliminate((0, 1, 1), (0, 0, 2), 1, 2) == (0, 1, 0)
    with pytest.raises(CombineError):
        eliminate((0, 1, 1), (0, 0, 2), 1, 0)


def test_rational_point_row_clears_denominators():
    assert rational_point_row([Fraction(1, 2), Fraction(2, 3)]) == (6, 3, 4)
    assert rational_point_row([1, 2]) == (1, 1, 2)


def fraction_point_row(coords):
    """``rational_point_row`` as built by Fraction arithmetic: the lcm of
    the denominators, one Fraction product per coordinate, then a gcd
    normalization."""
    fracs = []
    for x in coords:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InvalidVector(f"non-rational coordinate {x!r}")
        fracs.append(Fraction(x))
    d = 1
    for f in fracs:
        d = d * f.denominator // gcd(d, f.denominator)
    return normalize((d, *(int(f * d) for f in fracs)))


def random_coordinate(rng: random.Random, ints_only: bool) -> int | Fraction:
    u = rng.random()
    if u < 0.2:
        return 0
    if ints_only or u < 0.5:
        return rng.randint(-10**9, 10**9)
    den = rng.choice([rng.randint(1, 12), rng.randint(1, 10**6)])
    return Fraction(rng.randint(-10**7, 10**7), den)


def test_rational_point_row_matches_fraction_arithmetic():
    rng = random.Random(20261020)
    for k in range(2000):
        point = [random_coordinate(rng, k % 4 == 0) for _ in range(rng.randint(1, 7))]
        assert rational_point_row(point) == fraction_point_row(point), point
    assert rational_point_row([0, Fraction(0), 0]) == (1, 0, 0, 0)


@pytest.mark.parametrize(
    "bad", [True, False, 0.5, 1.0, Decimal("1"), Decimal("0.1"), "1", None, 1j]
)
def test_rational_point_row_refuses_non_rationals(bad):
    for point in ([bad], [1, bad], [Fraction(1, 3), bad]):
        with pytest.raises(InvalidVector):
            rational_point_row(point)
        with pytest.raises(InvalidVector):
            fraction_point_row(point)


def test_rational_point_row_refuses_an_empty_point():
    with pytest.raises(InvalidVector):
        rational_point_row([])


coords = st.lists(st.integers(-50, 50), min_size=2, max_size=5)


@given(coords.filter(lambda v: any(v)))
def test_normalize_idempotent(vec):
    once = normalize(tuple(vec))
    assert normalize(once) == once


@given(coords.filter(lambda v: any(v)))
def test_normalize_bidirectional_sign_canonical(vec):
    out = normalize(tuple(vec), bidirectional=True)
    lead = next(x for x in out if x)
    assert lead > 0
    assert normalize(tuple(-x for x in vec), bidirectional=True) == out


@given(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_combine_saturates_the_cutting_row(c, gp, gm):
    sp = scalar_prod(c, gp)
    sm = scalar_prod(c, gm)
    if not (sp > 0 > sm):
        return
    if not any(-sm * a + sp * b for a, b in zip(gp, gm)):
        # antiparallel pair; the engine stores those as a single line and
        # never feeds them to combine_with_products
        return
    out = combine_with_products(tuple(gp), tuple(gm), sp, sm)
    assert scalar_prod(c, out) == 0
    assert out == normalize(tuple(-sm * a + sp * b for a, b in zip(gp, gm)))


def gcd_loop_normalize(vec, bidirectional=False):
    """Reference: a gcd folded over the entries, then the sign rule."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    out = tuple(x // g for x in vec)
    lead = next(x for x in out if x)
    if bidirectional and lead < 0:
        out = tuple(-x for x in out)
    return out


big = st.integers(-(2**80), 2**80)
# small entries make zeros and shared factors common
entry = st.one_of(big, st.integers(-3, 3))


@given(
    st.lists(entry, min_size=2, max_size=7).filter(any),
    st.integers(1, 2**40),
    st.booleans(),
)
def test_normalize_matches_gcd_loop(vec, factor, bidirectional):
    for row in (tuple(vec), tuple(factor * x for x in vec)):
        assert normalize(row, bidirectional) == gcd_loop_normalize(row, bidirectional)


@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.lists(entry, min_size=n, max_size=n), st.lists(entry, min_size=n, max_size=n)
)))
def test_scalar_prod_matches_explicit_sum(pair):
    c, g = pair
    total = 0
    for i in range(len(c)):
        total += c[i] * g[i]
    assert scalar_prod(tuple(c), tuple(g)) == total
