import random
from fractions import Fraction

import pytest

from nncpoly import ConKind, Constraint, GenKind, Generator, NncPolyhedron
from nncpoly.conversion import close_generators, emit_generators
from nncpoly.errors import DimensionError, EmptySystem, InvalidVector
from nncpoly.oracle import full_gen_contains, gen_contains
from nncpoly.systems import con_contains

from corpus import CUT_VERTEX_GENS, nnc_corpus, wide_corpus


def interval(lo_strict: bool, hi_strict: bool) -> NncPolyhedron:
    return NncPolyhedron.from_constraints(
        [
            Constraint((-1, 1), ConKind.STRICT if lo_strict else ConKind.NONSTRICT),
            Constraint((3, -1), ConKind.STRICT if hi_strict else ConKind.NONSTRICT),
        ]
    )


OPEN_SQUARE_CS = [
    Constraint((0, 1, 0), ConKind.STRICT),
    Constraint((0, 0, 1), ConKind.STRICT),
    Constraint((2, -1, 0), ConKind.STRICT),
    Constraint((2, 0, -1), ConKind.STRICT),
]


def test_needs_positive_dimension():
    with pytest.raises(DimensionError):
        NncPolyhedron.universe(0)


def test_needs_a_context():
    # each view is built from the other one, so one must be given
    with pytest.raises(EmptySystem):
        NncPolyhedron(2)


def test_from_constraints_needs_rows_or_dim():
    with pytest.raises(EmptySystem):
        NncPolyhedron.from_constraints([])
    assert NncPolyhedron.from_constraints([], dim=2).equals(NncPolyhedron.universe(2))


def test_from_generators_needs_rows():
    with pytest.raises(EmptySystem):
        NncPolyhedron.from_generators([])


def test_closure_points_alone_give_the_empty_set():
    p = NncPolyhedron.from_generators([Generator((1, 0), GenKind.CLOSURE_POINT)])
    assert p.is_empty()


def test_mixed_dimensions_rejected():
    with pytest.raises(DimensionError):
        NncPolyhedron.from_constraints(
            [Constraint((1, 1), ConKind.NONSTRICT), Constraint((1, 1, 0), ConKind.NONSTRICT)]
        )


def test_contains_point():
    p = interval(False, True)  # [1, 3)
    assert p.contains_point([1])
    assert p.contains_point([Fraction(5, 2)])
    assert not p.contains_point([3])
    with pytest.raises(DimensionError):
        p.contains_point([1, 1])


def test_empty_polyhedron_contract():
    e = NncPolyhedron.empty(2)
    assert e.is_empty()
    assert e.generators() == []
    assert [(c.row, c.kind) for c in e.constraints()] == [((-1, 0, 0), ConKind.NONSTRICT)]
    assert not e.contains_point([0, 0])


def test_infeasible_constraints_become_empty():
    p = NncPolyhedron.from_constraints(
        [Constraint((0, 1), ConKind.STRICT), Constraint((0, -1), ConKind.STRICT)]
    )
    assert p.is_empty()
    assert p.equals(NncPolyhedron.empty(1))


def test_includes_is_strictness_aware():
    half, closed, inner = interval(False, True), interval(False, False), interval(True, True)
    assert closed.includes(half) and not half.includes(closed)
    assert half.includes(inner) and not inner.includes(half)
    assert half.includes(half)


def test_includes_on_boundary_points():
    open_sq = NncPolyhedron.from_constraints(OPEN_SQUARE_CS)
    closed_sq = open_sq.closure()
    interior = NncPolyhedron.from_generators([Generator((1, 1, 1), GenKind.POINT)])
    edge = NncPolyhedron.from_generators([Generator((1, 1, 0), GenKind.POINT)])
    assert open_sq.includes(interior)
    assert not open_sq.includes(edge)
    assert closed_sq.includes(edge)
    assert closed_sq.includes(open_sq)
    assert not open_sq.includes(closed_sq)


def test_equals_ignores_representation():
    closed = interval(False, False)
    padded = NncPolyhedron.from_generators(
        [
            Generator((1, 1), GenKind.POINT),
            Generator((1, 3), GenKind.POINT),
            Generator((1, 2), GenKind.POINT),
        ]
    )
    assert padded.equals(closed)
    assert not padded.equals(interval(False, True))


def test_closure():
    half = interval(False, True)
    closed = half.closure()
    assert closed.equals(interval(False, False))
    assert closed.closure().equals(closed)


def closed_by_conversion(p: NncPolyhedron) -> NncPolyhedron:
    """Reference closure: every closure point rewritten as a point, then
    a full generator-to-constraint conversion."""
    if p.is_empty():
        return NncPolyhedron.empty(p.dim)
    return NncPolyhedron.from_generators(
        [
            Generator(g.row, GenKind.POINT) if g.kind is GenKind.CLOSURE_POINT else g
            for g in p.generators()
        ]
    )


def test_closure_matches_the_conversion_route():
    for dim, rows in nnc_corpus() + wide_corpus()[:4]:
        p = NncPolyhedron.from_constraints(rows, dim=dim)
        ref = closed_by_conversion(p)
        q = NncPolyhedron.from_constraints(rows[: len(rows) // 2], dim=dim)
        sources = [p]
        if not p.is_empty():
            # built from generators, it reaches closure through a lazy c2g
            sources.append(NncPolyhedron.from_generators(p.generators()))
        for src in sources:
            closed = src.closure()
            assert closed.equals(ref), rows
            assert closed.closure().equals(closed), rows
            assert closed.includes(src), rows
            # later steps run on the role-flipped context itself
            assert closed.intersect(q).equals(ref.intersect(q)), rows


def test_closure_converts_nothing():
    for p in (interval(False, True), NncPolyhedron.from_constraints(OPEN_SQUARE_CS)):
        iterations = p.gen_ctx().counters.iterations
        closed = p.closure()
        assert closed._con is None
        assert closed.gen_ctx().counters.iterations == iterations
        assert not closed.gen_ctx().ns


def test_closure_leaves_its_source_alone():
    p = NncPolyhedron.from_constraints(OPEN_SQUARE_CS)
    ctx = p.gen_ctx()
    gens = emit_generators(ctx)
    state = (dict(ctx.rows), ctx.singular, ctx.soft, ctx.hard, set(ctx.ns))
    closed = p.closure()
    closed.add_constraints([Constraint((1, -1, 0), ConKind.NONSTRICT)]).generators()
    assert p.gen_ctx() is ctx
    assert (dict(ctx.rows), ctx.singular, ctx.soft, ctx.hard, set(ctx.ns)) == state
    assert emit_generators(ctx) == gens


def test_closure_of_an_empty_set_that_kept_a_closure_point():
    # fed in this order, the equality leaves the closure point (5, -1)
    # alone in the context; turned hard, it would give the set {-1/5}
    p = NncPolyhedron.from_constraints(
        [Constraint((-1, -5), ConKind.STRICT), Constraint((1, 5), ConKind.EQUALITY)]
    )
    assert p.is_empty()
    assert emit_generators(close_generators(p.gen_ctx()))
    assert p.closure().is_empty()


def corpus_pairs() -> list[tuple[NncPolyhedron, NncPolyhedron]]:
    """Consecutive systems of ``nnc_corpus()`` that share a dimension."""
    waiting: dict[int, NncPolyhedron] = {}
    out = []
    for dim, rows in nnc_corpus():
        p = NncPolyhedron.from_constraints(rows, dim=dim)
        if dim in waiting:
            out.append((waiting.pop(dim), p))
        else:
            waiting[dim] = p
    return out


def test_closure_distributes_over_hull():
    pairs = corpus_pairs()
    assert len(pairs) > 80
    for p, q in pairs:
        assert p.poly_hull(q).closure().equals(p.closure().poly_hull(q.closure()))


def test_closure_of_a_meet_lies_in_the_meet_of_closures():
    for p, q in corpus_pairs():
        assert p.closure().intersect(q.closure()).includes(p.intersect(q).closure())


def test_closure_contains_what_the_relaxed_constraints_hold():
    # for a nonempty set, the closure is its constraints with every strict
    # row made nonstrict; sampled at seeded box points and at the points and
    # closure points of the set, where the two differ most often
    rng = random.Random(5)
    checked = 0
    for dim, rows in nnc_corpus():
        p = NncPolyhedron.from_constraints(rows, dim=dim)
        if p.is_empty():
            continue
        relaxed = [
            Constraint(c.row, ConKind.NONSTRICT if c.kind is ConKind.STRICT else c.kind)
            for c in p.constraints()
        ]
        xs = [
            [Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(dim)]
            for _ in range(20)
        ]
        xs += [
            [Fraction(a, g.row[0]) for a in g.row[1:]]
            for g in p.generators()
            if g.kind in (GenKind.POINT, GenKind.CLOSURE_POINT)
        ]
        closed = p.closure()
        for x in xs:
            assert closed.contains_point(x) == con_contains(relaxed, x), (rows, x)
            checked += 1
    assert checked > 2000


def test_membership_matches_the_generator_oracles():
    # c2g, then g2c and closure of its output, judged by exact membership
    # against the input rows and the Fourier-Motzkin generator oracles,
    # not through includes/equals.  The generator bound keeps the oracles
    # at desk scale: one query on the 14 generators of nnc_corpus()[6]
    # takes tens of seconds.
    rng = random.Random(17)
    systems = checked = 0
    for dim, rows in nnc_corpus():
        if dim > 3:
            continue
        gens = NncPolyhedron.from_constraints(rows, dim=dim).generators()
        if not gens or len(gens) > 7:
            continue
        systems += 1
        poly = NncPolyhedron.from_generators(gens)
        closed = poly.closure()
        spots = [
            [Fraction(a, g.row[0]) for a in g.row[1:]]
            for g in gens
            if g.kind in (GenKind.POINT, GenKind.CLOSURE_POINT)
        ]
        xs = spots + [
            [(a + b) / 2 for a, b in zip(rng.choice(spots), rng.choice(spots))]
            for _ in range(6)
        ]
        xs += [[Fraction(rng.randint(-12, 12), 2) for _ in range(dim)] for _ in range(4)]
        for x in xs:
            inside = con_contains(rows, x)
            assert gen_contains(gens, x) == inside, (rows, x)
            assert poly.contains_point(x) == inside, (rows, x)
            assert closed.contains_point(x) == full_gen_contains(gens, x), (rows, x)
            checked += 1
    assert systems == 92
    assert checked > 1000


@pytest.mark.parametrize("bad", [0.1, True, float("nan"), float("inf"), "1", None])
def test_contains_point_takes_only_ints_and_fractions(bad):
    # 1 - 10x >= 0 holds at x = 1/10 but not at the float nearest to it;
    # a float would be read at its binary value, a bool as 0 or 1
    p = NncPolyhedron.from_constraints([Constraint((1, -10), ConKind.NONSTRICT)])
    assert p.contains_point([Fraction(1, 10)])
    with pytest.raises(InvalidVector):
        p.contains_point([bad])
    with pytest.raises(InvalidVector):
        con_contains(p.constraints(), [bad])
    with pytest.raises(InvalidVector):
        gen_contains(p.generators(), [bad])


def test_intersect():
    p = interval(False, True)  # [1, 3)
    q = NncPolyhedron.from_constraints(
        [Constraint((-2, 1), ConKind.STRICT), Constraint((5, -1), ConKind.NONSTRICT)]
    )  # (2, 5]
    r = p.intersect(q)
    assert r.contains_point([Fraction(5, 2)])
    assert not r.contains_point([2])
    assert not r.contains_point([3])
    assert sorted((c.row, c.kind.name) for c in r.constraints()) == [
        ((-2, 1), "STRICT"),
        ((3, -1), "STRICT"),
    ]


def test_poly_hull_can_close_a_gap():
    a = NncPolyhedron.from_constraints(
        [Constraint((0, 1), ConKind.NONSTRICT), Constraint((1, -1), ConKind.STRICT)]
    )  # [0, 1)
    b = NncPolyhedron.from_generators([Generator((1, 2), GenKind.POINT)])  # {2}
    h = a.poly_hull(b)
    assert sorted((c.row, c.kind.name) for c in h.constraints()) == [
        ((0, 1), "NONSTRICT"),
        ((2, -1), "NONSTRICT"),
    ]


def test_hull_keeps_openness_when_no_point_closes_it():
    a = interval(True, True)  # (1, 3)
    b = NncPolyhedron.from_constraints(
        [Constraint((-5, 1), ConKind.STRICT), Constraint((7, -1), ConKind.STRICT)]
    )  # (5, 7)
    h = a.poly_hull(b)
    assert h.equals(
        NncPolyhedron.from_constraints(
            [Constraint((-1, 1), ConKind.STRICT), Constraint((7, -1), ConKind.STRICT)]
        )
    )


def test_empty_absorbs_and_neutralizes():
    e = NncPolyhedron.empty(2)
    p = NncPolyhedron.from_constraints(OPEN_SQUARE_CS)
    assert e.intersect(p).is_empty()
    assert p.intersect(e).is_empty()
    assert e.poly_hull(p).equals(p)
    assert p.poly_hull(e).equals(p)
    assert p.includes(e)
    assert not e.includes(p)
    assert e.includes(e)


def test_universe_includes_everything():
    u = NncPolyhedron.universe(2)
    assert u.includes(NncPolyhedron.from_constraints(OPEN_SQUARE_CS))
    assert u.includes(u)
    assert u.contains_point([Fraction(-100), Fraction(100)])


def test_add_constraints_matches_one_shot():
    rows = [
        Constraint((0, 1, 0), ConKind.NONSTRICT),
        Constraint((0, 0, 1), ConKind.STRICT),
        Constraint((3, -1, -1), ConKind.NONSTRICT),
    ]
    staged = NncPolyhedron.from_constraints(rows[:1]).add_constraints(rows[1:])
    assert staged.equals(NncPolyhedron.from_constraints(rows))


def test_add_generators_matches_one_shot():
    gens = [
        Generator((1, 0, 0), GenKind.POINT),
        Generator((1, 2, 0), GenKind.CLOSURE_POINT),
        Generator((0, 0, 1), GenKind.RAY),
    ]
    staged = NncPolyhedron.from_generators(gens[:1]).add_generators(gens[1:])
    assert staged.equals(NncPolyhedron.from_generators(gens))


def test_add_generators_to_empty():
    e = NncPolyhedron.empty(1)
    p = e.add_generators([Generator((1, 4), GenKind.POINT)])
    assert p.equals(NncPolyhedron.from_generators([Generator((1, 4), GenKind.POINT)]))
    assert e.add_generators([]).is_empty()
    assert e.add_generators([Generator((1, 4), GenKind.CLOSURE_POINT)]).is_empty()


def test_operations_leave_operands_alone():
    p = interval(False, True)
    q = interval(True, False)
    before_p = sorted((c.row, c.kind) for c in p.constraints())
    before_q = sorted((c.row, c.kind) for c in q.constraints())
    p.intersect(q)
    p.poly_hull(q)
    p.add_constraints([Constraint((2, -1), ConKind.STRICT)])
    assert sorted((c.row, c.kind) for c in p.constraints()) == before_p
    assert sorted((c.row, c.kind) for c in q.constraints()) == before_q

    # the emitted views are cached, and callers get copies of them
    gens = p.generators()
    p.generators().clear()
    p.constraints().append(Constraint((-1, 1), ConKind.STRICT))
    assert p.generators() == gens
    assert sorted((c.row, c.kind) for c in p.constraints()) == before_p

    # emptiness of a polyhedron built from generators builds no other view
    seg = NncPolyhedron.from_generators([Generator((1, 1), GenKind.POINT)])
    assert not seg.is_empty()
    assert seg._gen is None


def test_generator_order_does_not_change_the_result():
    fwd = NncPolyhedron.from_generators(CUT_VERTEX_GENS)
    back = NncPolyhedron.from_generators(list(reversed(CUT_VERTEX_GENS)))
    assert not fwd.contains_point([2, -2, -1])
    assert not back.contains_point([2, -2, -1])
    assert fwd.equals(back)


def test_repr_mentions_dim():
    assert "2" in repr(NncPolyhedron.universe(2))
