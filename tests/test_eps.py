"""The closed-cone engine and the slack-variable route around it.

This route is deliberately separate code from the main engine: strictness
is pushed into an extra coordinate, the closed problem is solved, and the
result is decoded.  The tests pin the encoding rules and check both routes
land on the same sets.
"""

import random

import pytest

from corpus import nnc_corpus
from nncpoly import eps
from nncpoly.errors import EmptySystem, KindError
from nncpoly.homvec import combine_with_products, scalar_prod
from nncpoly.satlat import adjacent, bit_indices, id_mask
from nncpoly.systems import ConKind, Constraint, GenKind, Generator


def test_closed_square_both_directions():
    square = [
        Constraint((1, 1, 0), ConKind.NONSTRICT),
        Constraint((1, -1, 0), ConKind.NONSTRICT),
        Constraint((1, 0, 1), ConKind.NONSTRICT),
        Constraint((1, 0, -1), ConKind.NONSTRICT),
    ]
    cone = eps.closed_c2g(square)
    gens = sorted((g.row, g.kind.name) for g in eps.closed_generators(cone))
    assert gens == [
        ((1, -1, -1), "POINT"),
        ((1, -1, 1), "POINT"),
        ((1, 1, -1), "POINT"),
        ((1, 1, 1), "POINT"),
    ]
    back = eps.closed_g2c([Generator(r, GenKind.POINT) for r, _ in gens])
    cons = sorted((c.row, c.kind.name) for c in eps.closed_constraints(back))
    assert cons == sorted((c.row, c.kind.name) for c in square)


def test_closed_engine_handles_lines_and_equalities():
    cone = eps.closed_c2g([Constraint((0, 0, 1), ConKind.EQUALITY)])
    gens = sorted((g.row, g.kind.name) for g in eps.closed_generators(cone))
    assert gens == [((0, 1, 0), "LINE"), ((1, 0, 0), "POINT")]


def test_closed_engine_rejects_nnc_rows():
    with pytest.raises(KindError):
        eps.closed_c2g([Constraint((1, -1), ConKind.STRICT)])
    with pytest.raises(KindError):
        eps.closed_g2c([Generator((1, 1), GenKind.CLOSURE_POINT)])
    with pytest.raises(EmptySystem):
        eps.closed_g2c([Generator((0, 1), GenKind.RAY)])


def test_encode_constraints_appends_slack_column():
    enc = eps.eps_encode_constraints(
        [
            Constraint((-1, 1), ConKind.NONSTRICT),
            Constraint((3, -1), ConKind.STRICT),
        ]
    )
    assert [(c.row, c.kind.name) for c in enc] == [
        ((-1, 1, 0), "NONSTRICT"),
        ((3, -1, -1), "NONSTRICT"),
        ((0, 0, 1), "NONSTRICT"),
        ((1, 0, -1), "NONSTRICT"),
    ]


def test_decode_constraints_recovers_strictness():
    dec = eps.eps_decode_constraints(
        [
            Constraint((3, -1, -1), ConKind.NONSTRICT),
            Constraint((0, 1, 0), ConKind.NONSTRICT),
            Constraint((0, 0, 1), ConKind.NONSTRICT),
            Constraint((1, 0, -1), ConKind.NONSTRICT),
        ]
    )
    assert [(c.row, c.kind.name) for c in dec] == [
        ((3, -1), "STRICT"),
        ((0, 1), "NONSTRICT"),
    ]


def test_decode_rejects_rows_that_lean_on_the_slack():
    with pytest.raises(KindError):
        eps.eps_decode_constraints([Constraint((1, -1, 1), ConKind.NONSTRICT)])
    with pytest.raises(KindError):
        eps.eps_decode_constraints([Constraint((0, 1, -1), ConKind.EQUALITY)])
    with pytest.raises(KindError):
        eps.eps_decode_generators([Generator((0, 1, 1), GenKind.RAY)])


@pytest.mark.parametrize("seed", range(3))
def test_point_free_generators_decode_to_the_empty_set(seed):
    # every encoded generator sits at slack 0, so the closed cone holds the
    # equality slack = 0, which no point with a positive slack satisfies
    rng = random.Random(seed)
    for _ in range(20):
        dim = rng.randint(1, 4)
        gens = [
            Generator(
                tuple([rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(dim)]),
                GenKind.CLOSURE_POINT,
            )
            for _ in range(rng.randint(1, dim + 2))
        ]
        ray = [rng.randint(-3, 3) for _ in range(dim)]
        if any(ray) and rng.random() < 0.5:
            gens.append(Generator(tuple([0] + ray), GenKind.RAY))
        cons, _ = eps.eps_g2c(gens)
        assert [(c.row, c.kind) for c in cons] == [((-1,) + (0,) * dim, ConKind.NONSTRICT)]


@pytest.mark.parametrize("kind", [GenKind.RAY, GenKind.LINE])
def test_directions_alone_give_the_empty_set(kind):
    # no point, not even a closure point at slack 0, so there is no cone
    # to start from: the route answers -1 >= 0 with a state holding no rows
    cons, cone = eps.eps_g2c([Generator((0, 1, 0), kind), Generator((0, 0, 1), GenKind.RAY)])
    assert [(c.row, c.kind) for c in cons] == [((-1, 0, 0), ConKind.NONSTRICT)]
    assert not cone.rows and cone.counters.iterations == 0


def test_encode_generators_points_carry_a_shadow():
    enc = eps.eps_encode_generators(
        [
            Generator((1, 5), GenKind.POINT),
            Generator((1, 3), GenKind.CLOSURE_POINT),
            Generator((0, 1), GenKind.RAY),
        ]
    )
    assert [(g.row, g.kind.name) for g in enc] == [
        ((1, 5, 1), "POINT"),
        ((1, 5, 0), "POINT"),
        ((1, 3, 0), "POINT"),
        ((0, 1, 0), "RAY"),
    ]


def test_decode_generators_shadow_is_not_a_closure_point():
    dec = eps.eps_decode_generators(
        [
            Generator((1, 5, 1), GenKind.POINT),
            Generator((1, 5, 0), GenKind.POINT),
            Generator((1, 3, 0), GenKind.POINT),
            Generator((0, 1, 0), GenKind.RAY),
        ]
    )
    assert [(g.row, g.kind.name) for g in dec] == [
        ((1, 5), "POINT"),
        ((1, 3), "CLOSURE_POINT"),
        ((0, 1), "RAY"),
    ]


def test_both_routes_agree_on_an_nnc_triangle():
    cs = [
        Constraint((0, 1, 0), ConKind.STRICT),
        Constraint((0, 0, 1), ConKind.NONSTRICT),
        Constraint((2, -1, -1), ConKind.STRICT),
    ]
    gens, _ = eps.eps_c2g(cs)
    from nncpoly.conversion import conversion_c2g, emit_generators

    direct = emit_generators(conversion_c2g(cs))
    assert sorted((g.row, g.kind.name) for g in gens) == sorted(
        (g.row, g.kind.name) for g in direct
    )


def test_roundtrip_through_the_slack_route():
    gens = [
        Generator((1, 1), GenKind.POINT),
        Generator((1, 3), GenKind.CLOSURE_POINT),
    ]
    cons, _ = eps.eps_g2c(gens)
    assert sorted((c.row, c.kind.name) for c in cons) == [
        ((-1, 1), "NONSTRICT"),
        ((3, -1), "STRICT"),
    ]


def test_counting_matches_the_direct_engine_on_closed_input():
    from nncpoly.conversion import conversion_c2g, conversion_g2c

    square = [
        Constraint((1, 1, 0), ConKind.NONSTRICT),
        Constraint((1, -1, 0), ConKind.NONSTRICT),
        Constraint((1, 0, 1), ConKind.NONSTRICT),
        Constraint((1, 0, -1), ConKind.NONSTRICT),
    ]
    direct = conversion_c2g(square)
    cone = eps.closed_c2g(square)
    assert direct.counters.vec_ops == cone.counters.vec_ops == 18
    assert direct.counters.sizes == cone.counters.sizes

    corners = [
        Generator((1, 1, 1), GenKind.POINT),
        Generator((1, -1, 1), GenKind.POINT),
        Generator((1, 1, -1), GenKind.POINT),
        Generator((1, -1, -1), GenKind.POINT),
    ]
    direct_g = conversion_g2c(corners)
    cone_g = eps.closed_g2c(list(corners))
    assert direct_g.counters.vec_ops == cone_g.counters.vec_ops == 13


def random_closed_system(rng: random.Random, dim: int) -> list[Constraint]:
    rows = []
    for _ in range(rng.randint(dim + 1, 3 * dim)):
        a = [rng.randint(-4, 4) for _ in range(dim)]
        if not any(a):
            a[0] = 1
        if rng.random() < 0.1:
            rows.append(Constraint(tuple([0] + a), ConKind.EQUALITY))
        else:
            rows.append(Constraint(tuple([rng.randint(-1, 5)] + a), ConKind.NONSTRICT))
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_rank_quick_reject_drops_no_adjacent_pair(monkeypatch, seed):
    """At every step with a pair loop, each pair the unfiltered scan finds
    adjacent shares at least rank - 2 saturated rows, and the filtered step
    combines exactly the pairs of the unfiltered scan, in order."""
    step = eps.closed_add_row
    rejected = 0

    def reference_scan(cone, row, line):
        nonlocal rejected
        sps = {eid: scalar_prod(row, r) for eid, r in cone.rows.items()}
        lines = list(bit_indices(cone.singular))
        if not cone.rows or any(sps[eid] for eid in lines):
            return step(cone, row, line)  # no pair loop on this step
        rays = [eid for eid in sorted(cone.rows) if eid not in lines]
        pos = [eid for eid in rays if sps[eid] > 0]
        neg = [eid for eid in rays if sps[eid] < 0]
        need = cone.dim - 1 - len(lines)
        bits = cone.sat.bits
        pairs = [(p, m) for p in pos for m in neg if adjacent(cone.sat, p, m, id_mask(rays))]
        for p, m in pairs:
            assert (bits[p] & bits[m]).bit_count() >= need
        rejected += sum((bits[p] & bits[m]).bit_count() < need for p in pos for m in neg)
        want = [
            combine_with_products(cone.rows[p], cone.rows[m], sps[p], sps[m])
            for p, m in pairs
        ]
        first = cone.next_id
        step(cone, row, line)
        assert [cone.rows[eid] for eid in range(first, cone.next_id)] == want

    monkeypatch.setattr(eps, "closed_add_row", reference_scan)
    rng = random.Random(seed)
    for dim in (2, 3, 4, 5):
        cone = eps.closed_c2g(random_closed_system(rng, dim))
        gens = eps.closed_generators(cone)
        if gens:
            eps.closed_g2c(gens)
    assert rejected > 0


def test_every_step_keeps_lines_among_live_rows(monkeypatch):
    # the role masks are the one record of which elements are line-like, so
    # no step may leave a bit there for an element it dropped; the closed
    # engine holds lines and rays alone, never a hard element or a support
    step = eps.closed_add_row
    steps = 0

    def checked(cone, row, line):
        nonlocal steps
        step(cone, row, line)
        steps += 1
        assert not cone.singular & ~id_mask(cone.rows)
        assert cone.singular | cone.soft == id_mask(cone.rows)
        assert cone.hard == 0
        assert not cone.ns

    monkeypatch.setattr(eps, "closed_add_row", checked)
    rng = random.Random(7)
    for dim in (2, 3, 4):
        for _ in range(4):
            gens = eps.closed_generators(eps.closed_c2g(random_closed_system(rng, dim)))
            if gens:
                eps.closed_g2c(gens)
    for dim, rows in nnc_corpus(40):
        gens, _ = eps.eps_c2g(rows)
        if gens:
            eps.eps_g2c(gens)
    assert steps > 500
