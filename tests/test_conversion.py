"""Step-level and end-to-end checks of the dual-role conversion engine.

The step fixtures assemble a context mid-run with build_ctx: a square of
closure points with one saturation column per facet, plus a recorded
strictness support, then push one more row through and compare against the
hand-derived outcome.
"""

import random

import pytest

from corpus import CUT_VERTEX_GENS, build_ctx, closed_corpus, nnc_corpus, wide_corpus
from nncpoly import conversion, eps
from nncpoly.conversion import (
    ConvCtx,
    Role,
    Side,
    add_constraint,
    add_generator,
    conversion_c2g,
    conversion_g2c,
    emit_constraints,
    emit_generators,
    init_con_ctx,
    process_row,
    promote_singletons,
    skeleton,
    universe_gen_ctx,
)
from nncpoly.counting import OpCounters
from nncpoly.errors import DimensionError, EmptySupportError, EmptySystem, KindError, StaleIdError
from nncpoly.homvec import scalar_prod
from nncpoly.satlat import SatMatrix, bit_indices, id_mask, mask_ids, minimal_family
from nncpoly.systems import ConKind, Constraint, GenKind, Generator


def supports(ctx):
    """The context's supports, read out of their id masks."""
    return {mask_ids(ns) for ns in ctx.ns}


def square_ctx(ns):
    """Closure-point square [0,2]^2, columns x>=0, y>=0, x<=2, y<=2."""
    return build_ctx(
        2,
        Side.GEN,
        elems=[
            ((1, 0, 0), Role.SOFT),
            ((1, 2, 0), Role.SOFT),
            ((1, 2, 2), Role.SOFT),
            ((1, 0, 2), Role.SOFT),
        ],
        cols=[{0, 3}, {0, 1}, {1, 2}, {2, 3}],
        ns=ns,
    )


def test_skeleton_splits_the_singular_rows_off():
    # lines first, then every other element in id order; a support adds
    # no row of its own
    ctx = universe_gen_ctx(2)
    assert skeleton(ctx) == ([(0, 1, 0), (0, 0, 1)], [(1, 0, 0)])
    assert skeleton(square_ctx([{0, 3}])) == ([], [(1, 0, 0), (1, 2, 0), (1, 2, 2), (1, 0, 2)])


def test_move_support_across_nonstrict_cut():
    # support on the left edge; y <= 1 cuts it; the reattached singleton
    # support promotes its element into the skeleton right away
    ctx = square_ctx([{0, 3}])
    process_row(ctx, (1, 0, -1), Role.SOFT)
    assert ctx.ns == set()
    assert ctx.rows == {
        0: (1, 0, 0),
        1: (1, 2, 0),
        4: (1, 0, 1),
        5: (1, 2, 1),
    }
    assert ctx.role_of(4) is Role.HARD
    assert ctx.role_of(5) is Role.SOFT


def test_move_support_across_strict_cut():
    ctx = square_ctx([{0, 3}])
    process_row(ctx, (1, 0, -1), Role.HARD)
    assert supports(ctx) == {frozenset({0, 4})}
    assert ctx.rows[4] == (1, 0, 1)


def test_create_support_from_doomed_side_nonstrict():
    # support on the top edge goes away entirely; its trace on the cut
    # plane is the new combined pair
    ctx = square_ctx([{2, 3}])
    process_row(ctx, (1, 0, -1), Role.SOFT)
    assert supports(ctx) == {frozenset({4, 5})}
    assert ctx.rows[4] == (1, 0, 1)
    assert ctx.rows[5] == (1, 2, 1)


def test_create_support_from_doomed_side_strict():
    ctx = square_ctx([{2, 3}])
    process_row(ctx, (1, 0, -1), Role.HARD)
    assert supports(ctx) == {frozenset({0, 1, 4, 5})}


def test_create_support_seeded_by_skeleton_point():
    # diamond with closure-point vertices c0=(0,1), c1=(1,2), c2=(2,1) and a
    # skeleton point p=(1,0); the cut y <= 1 leaves p strictly inside, c0 and
    # c2 on the plane, and c1 beyond it.  p and c1 are not adjacent, so no
    # combined element appears; the doomed vertex's face is instead recorded
    # as the support {c0, c2} seeded from the skeleton point.
    ctx = build_ctx(
        2,
        Side.GEN,
        elems=[
            ((1, 0, 1), Role.SOFT),
            ((1, 1, 2), Role.SOFT),
            ((1, 2, 1), Role.SOFT),
            ((1, 1, 0), Role.HARD),
        ],
        cols=[{0, 3}, {2, 3}, {1, 2}, {0, 1}],
        ns=[],
    )
    process_row(ctx, (1, 0, -1), Role.SOFT)
    assert supports(ctx) == {frozenset({0, 2})}
    assert {i: (r, ctx.role_of(i)) for i, r in sorted(ctx.rows.items())} == {
        0: ((1, 0, 1), Role.SOFT),
        2: ((1, 2, 1), Role.SOFT),
        3: ((1, 1, 0), Role.HARD),
    }


def test_equality_cut_rebuilds_positive_side_supports():
    # the support lies entirely on the positive side of an equality cut;
    # its image on the plane must be re-created, not dropped
    ctx = build_ctx(
        2,
        Side.GEN,
        elems=[
            ((1, 1, 0), Role.SOFT),
            ((1, 1, 2), Role.SOFT),
            ((1, -1, 1), Role.SOFT),
        ],
        cols=[{0, 2}, {1, 2}],
        ns=[{0, 1}],
    )
    process_row(ctx, (0, 1, 0), Role.SINGULAR)
    assert supports(ctx) == {frozenset({3, 4})}
    assert ctx.rows[3] == (2, 0, 1)
    assert ctx.rows[4] == (2, 0, 3)


def test_promote_singleton_folds_into_skeleton():
    # a minimal family, as every step leaves it: the singleton folds in and
    # the support disjoint from it stays
    ctx = square_ctx([{0}, {1, 2}])
    promote_singletons(ctx)
    assert ctx.role_of(0) is Role.HARD
    assert supports(ctx) == {frozenset({1, 2})}


def test_singletons_promote_together():
    # every singleton of the step turns hard in one role change, and
    # exactly those supports go
    ctx = square_ctx([{0}, {2}, {1, 3}])
    promote_singletons(ctx)
    assert (ctx.hard, ctx.soft) == (id_mask({0, 2}), id_mask({1, 3}))
    assert supports(ctx) == {frozenset({1, 3})}


def test_role_changes_and_removals_take_live_id_masks():
    ctx = square_ctx([])
    ctx.set_role(id_mask({0, 2}), Role.HARD)
    assert (ctx.hard, ctx.soft) == (id_mask({0, 2}), id_mask({1, 3}))
    ctx.drop(id_mask({1, 2}))
    assert sorted(ctx.rows) == sorted(ctx.sat.bits) == [0, 3]
    assert (ctx.singular, ctx.soft, ctx.hard) == (0, id_mask({3}), id_mask({0}))
    # a dropped id, or one never issued, is stale: the call raises and
    # changes nothing, also for the live ids beside it
    state = (dict(ctx.rows), dict(ctx.sat.bits), ctx.singular, ctx.soft, ctx.hard)
    ctx.set_role(0, Role.SINGULAR)  # an empty mask changes nothing
    ctx.drop(0)
    assert (dict(ctx.rows), dict(ctx.sat.bits), ctx.singular, ctx.soft, ctx.hard) == state
    for stale in (id_mask({1}), id_mask({0, 9})):
        with pytest.raises(StaleIdError):
            ctx.drop(stale)
        with pytest.raises(StaleIdError):
            ctx.set_role(stale, Role.SOFT)
        assert (dict(ctx.rows), dict(ctx.sat.bits), ctx.singular, ctx.soft, ctx.hard) == state


def test_compact_ids_keeps_the_order():
    # once the ids issued outgrow the live elements, the live ones take ids
    # 0..n-1 in order: rows, saturation rows, roles and supports alike
    ctx = square_ctx([{1, 3}])
    ctx.set_role(id_mask({2}), Role.HARD)
    ctx.drop(id_mask({0}))
    ctx.compact_ids()
    assert sorted(ctx.rows) == [1, 2, 3]  # too few ids issued yet
    for _ in range(70):
        ctx.drop(1 << ctx.add_elem((1, 1, 1), Role.SOFT))
    rows, bits = list(ctx.rows.values()), list(ctx.sat.bits.values())
    ctx.compact_ids()
    assert list(ctx.rows.items()) == list(enumerate(rows))
    assert list(ctx.sat.bits.items()) == list(enumerate(bits))
    assert (ctx.singular, ctx.soft, ctx.hard) == (0, id_mask({0, 2}), id_mask({1}))
    assert supports(ctx) == {frozenset({0, 2})}
    assert ctx.next_id == 3 and ctx.add_elem((1, 1, 1), Role.SOFT) == 3


@pytest.mark.parametrize("stale", ["line", "dropped"])
def test_a_support_on_a_stale_element_fails_the_step(stale):
    # a support names live non-singular elements only; this one also meets
    # the positive side, so it does not lie outside the step's parts whole
    ctx = square_ctx([{0, 3}])
    if stale == "line":
        ctx.set_role(id_mask({3}), Role.SINGULAR)
    else:
        ctx.drop(id_mask({3}))
    with pytest.raises(EmptySupportError):
        process_row(ctx, (2, 0, -1), Role.SOFT)  # the line saturates it


# --- end to end ---------------------------------------------------------


def dump_gens(ctx):
    return sorted((g.row, g.kind.name) for g in emit_generators(ctx))


def dump_cons(ctx):
    return sorted((c.row, c.kind.name) for c in emit_constraints(ctx))


def test_half_open_interval():
    ctx = conversion_c2g(
        [
            Constraint((-1, 1), ConKind.NONSTRICT),
            Constraint((3, -1), ConKind.STRICT),
        ]
    )
    assert dump_gens(ctx) == [((1, 1), "POINT"), ((1, 3), "CLOSURE_POINT")]


def test_open_half_plane():
    ctx = conversion_c2g([Constraint((1, -1, 0), ConKind.STRICT)])
    assert dump_gens(ctx) == [
        ((0, -1, 0), "RAY"),
        ((0, 0, 1), "LINE"),
        ((1, 0, 0), "POINT"),
        ((1, 1, 0), "CLOSURE_POINT"),
    ]


def test_equality_through_universe():
    ctx = conversion_c2g([Constraint((0, 0, 1), ConKind.EQUALITY)])
    assert dump_gens(ctx) == [((0, 1, 0), "LINE"), ((1, 0, 0), "POINT")]


def test_unbounded_wedge_gets_the_diagonal_ray():
    ctx = conversion_c2g(
        [
            Constraint((0, 1, 0), ConKind.NONSTRICT),
            Constraint((0, 0, 1), ConKind.NONSTRICT),
            Constraint((0, -1, 1), ConKind.NONSTRICT),
        ]
    )
    assert dump_gens(ctx) == [
        ((0, 0, 1), "RAY"),
        ((0, 1, 1), "RAY"),
        ((1, 0, 0), "POINT"),
    ]


def test_infeasible_strict_pair_is_empty():
    ctx = conversion_c2g(
        [
            Constraint((0, 1), ConKind.STRICT),
            Constraint((0, -1), ConKind.STRICT),
        ]
    )
    assert not ctx.rows
    assert emit_generators(ctx) == []


def test_point_and_ray_back_to_constraints():
    ctx = conversion_g2c(
        [Generator((1, 0, 0), GenKind.POINT), Generator((0, 1, 0), GenKind.RAY)]
    )
    assert dump_cons(ctx) == [
        ((0, 0, 1), "EQUALITY"),
        ((0, 1, 0), "NONSTRICT"),
    ]


def test_closed_segment_emits_no_strict_rows():
    ctx = conversion_g2c(
        [Generator((1, 1), GenKind.POINT), Generator((1, 3), GenKind.POINT)]
    )
    assert dump_cons(ctx) == [((-1, 1), "NONSTRICT"), ((3, -1), "NONSTRICT")]


def test_half_open_segment_emits_one_strict_row():
    ctx = conversion_g2c(
        [Generator((1, 1), GenKind.POINT), Generator((1, 3), GenKind.CLOSURE_POINT)]
    )
    assert dump_cons(ctx) == [((-1, 1), "NONSTRICT"), ((3, -1), "STRICT")]


# The last point, (-2, 0), violates the strict row 2 + 3x + 2y > 0 of the
# first five generators while strict rows not adjacent to it stay.
POINT_CUTS_STRICT_GENS = [
    Generator((1, 1, -2), GenKind.POINT),
    Generator((1, -2, 2), GenKind.CLOSURE_POINT),
    Generator((1, 0, -1), GenKind.CLOSURE_POINT),
    Generator((1, 3, 1), GenKind.CLOSURE_POINT),
    Generator((1, 2, -1), GenKind.CLOSURE_POINT),
    Generator((1, -2, 0), GenKind.POINT),
]


def spy_hard_extensions(monkeypatch):
    """Record (role of the added row, any extension hard) per face
    enumeration."""
    seen = []
    roles = []
    process_row = conversion.process_row
    enumerate_faces = conversion.enumerate_faces

    def row_spy(ctx, row, role):
        roles.append(role)
        return process_row(ctx, row, role)

    def spy(ctx, seeds, extensions, split):
        hard = any(ctx.role_of(e) is Role.HARD for e in bit_indices(extensions))
        seen.append((roles[-1], hard))
        return enumerate_faces(ctx, seeds, extensions, split)

    monkeypatch.setattr(conversion, "process_row", row_spy)
    monkeypatch.setattr(conversion, "enumerate_faces", spy)
    return seen


def test_added_point_closes_no_strict_pair(monkeypatch):
    # a pair closed when a point is added keeps its strict row hard, so
    # the union would drop it: no such closure is attempted
    seen = spy_hard_extensions(monkeypatch)
    ctx = conversion_g2c(POINT_CUTS_STRICT_GENS)
    assert (Role.HARD, False) in seen
    assert (Role.HARD, True) not in seen
    assert dump_cons(ctx) == [
        ((2, 1, 0), "NONSTRICT"),
        ((3, -1, 1), "NONSTRICT"),
        ((4, 2, 3), "NONSTRICT"),
        ((5, -2, 1), "STRICT"),
        ((8, -1, -5), "STRICT"),
    ]
    assert dump_cons(conversion_g2c(list(reversed(POINT_CUTS_STRICT_GENS)))) == dump_cons(ctx)


def test_added_closure_point_still_closes_strict_pairs(monkeypatch):
    seen = spy_hard_extensions(monkeypatch)
    fwd = conversion_g2c(CUT_VERTEX_GENS)
    assert (Role.SOFT, True) in seen
    assert (Role.HARD, True) not in seen
    back = conversion_g2c(list(reversed(CUT_VERTEX_GENS)))
    assert dump_cons(fwd) == dump_cons(back)


# The unit square at z = 0 with its corner (1, 1) open: after the closure
# point the strict row 2 - x - y > 0 lives as a support, and the last
# generator breaks the equality z = 0 while that support is live.
OPEN_CORNER_GENS = [
    Generator((1, 0, 0, 0), GenKind.POINT),
    Generator((1, 1, 0, 0), GenKind.POINT),
    Generator((1, 0, 1, 0), GenKind.POINT),
    Generator((1, 1, 1, 0), GenKind.CLOSURE_POINT),
]
OPEN_CORNER_SIDES = [
    ((0, 1, 0, 0), "NONSTRICT"),
    ((0, 0, 1, 0), "NONSTRICT"),
    ((1, -1, 0, 0), "NONSTRICT"),
    ((1, 0, -1, 0), "NONSTRICT"),
    ((2, -1, -1, 0), "STRICT"),
]


@pytest.mark.parametrize(
    "last, expected",
    [
        (Generator((0, 0, 0, 1), GenKind.LINE), OPEN_CORNER_SIDES),
        (Generator((0, 0, 0, 1), GenKind.RAY), OPEN_CORNER_SIDES + [((0, 0, 0, 1), "NONSTRICT")]),
        (
            Generator((0, 1, 1, 1), GenKind.LINE),
            [
                ((0, 1, 0, -1), "NONSTRICT"),
                ((0, 0, 1, -1), "NONSTRICT"),
                ((1, -1, 0, 1), "NONSTRICT"),
                ((1, 0, -1, 1), "NONSTRICT"),
                ((2, -1, -1, 2), "STRICT"),
            ],
        ),
    ],
    ids=["line", "ray", "slanted-line"],
)
def test_generator_breaks_an_equality_under_a_live_support(monkeypatch, last, expected):
    live = []
    violating_singular = conversion.violating_singular

    def spy(ctx, *args):
        live.append(bool(ctx.ns))
        return violating_singular(ctx, *args)

    monkeypatch.setattr(conversion, "violating_singular", spy)
    gens = OPEN_CORNER_GENS + [last]
    got = dump_cons(conversion_g2c(gens))
    assert live[-1]
    assert got == sorted(expected)
    assert got == sorted((c.row, c.kind.name) for c in eps.eps_g2c(gens)[0])


def test_generators_need_a_point():
    with pytest.raises(EmptySystem):
        conversion_g2c([Generator((0, 1, 0), GenKind.RAY)])


def test_hull_reopens_the_boundary_tracker():
    # [0,1) hulled with the point {2} closes up to [0,2]: the strict bound
    # disappears and both endpoints come out as real vertices
    base = conversion_g2c(
        [Generator((1, 0), GenKind.POINT), Generator((1, 1), GenKind.CLOSURE_POINT)]
    )
    merged = conversion_g2c([Generator((1, 2), GenKind.POINT)], base=base)
    assert dump_cons(merged) == [((0, 1), "NONSTRICT"), ((2, -1), "NONSTRICT")]
    back = conversion_c2g(emit_constraints(merged))
    assert dump_gens(back) == [((1, 0), "POINT"), ((1, 2), "POINT")]


def test_row_order_does_not_change_the_set():
    rows = [
        Constraint((0, 1, 0), ConKind.STRICT),
        Constraint((0, 0, 1), ConKind.NONSTRICT),
        Constraint((2, -1, -1), ConKind.STRICT),
        Constraint((0, 1, -1), ConKind.NONSTRICT),
    ]
    a = conversion_c2g(rows)
    b = conversion_c2g(list(reversed(rows)))
    ga = sorted((g.row, g.kind.name) for g in emit_generators(a))
    gb = sorted((g.row, g.kind.name) for g in emit_generators(b))
    assert ga == gb


def test_shuffled_input_gives_the_same_output():
    # order invariance: a permutation of the input rows, on either side,
    # gives the same output set; the generator-order bug once broke this
    checked = 0
    for idx, (dim, rows) in enumerate(wide_corpus() + nnc_corpus()[:60]):
        rng = random.Random(idx)
        ctx = conversion_c2g(rows, dim=dim)
        shuffled = conversion_c2g(rng.sample(rows, len(rows)), dim=dim)
        assert dump_gens(shuffled) == dump_gens(ctx), idx
        checked += 1
        gens = emit_generators(ctx)
        if gens:
            shuffled = conversion_g2c(rng.sample(gens, len(gens)))
            assert dump_cons(shuffled) == dump_cons(conversion_g2c(gens)), idx
            checked += 1
    assert checked > 100


def test_closed_inputs_keep_the_tracker_empty():
    ctx = universe_gen_ctx(2)
    rows = [
        Constraint((1, 1, 0), ConKind.NONSTRICT),
        Constraint((1, -1, 0), ConKind.NONSTRICT),
        Constraint((1, 0, 1), ConKind.NONSTRICT),
        Constraint((1, 0, -1), ConKind.NONSTRICT),
        Constraint((0, 1, 1), ConKind.NONSTRICT),
    ]
    for c in rows:
        add_constraint(ctx, c)
        assert not ctx.ns


def test_incremental_equals_one_shot():
    rows = [
        Constraint((0, 1, 0), ConKind.NONSTRICT),
        Constraint((0, 0, 1), ConKind.STRICT),
        Constraint((3, -1, -1), ConKind.NONSTRICT),
    ]
    one_shot = conversion_c2g(rows)
    staged = conversion_c2g(rows[:1])
    staged = conversion_c2g(rows[1:], base=staged)
    assert dump_gens(staged) == dump_gens(one_shot)


def test_every_step_keeps_the_engine_invariants(monkeypatch):
    # The step checks none of these itself; each is the reason a check was
    # left out:
    # * the role masks are the one record of roles: every live element has
    #   exactly one, and no dropped element keeps one;
    # * ids ascend in dict order, so emission order needs no sort;
    # * the supports form an antichain of soft pairs or larger, so a step
    #   that moves and creates nothing keeps them without a union, the union
    #   filters no hard element, and promotion reads only singletons;
    # * on the generator side every support holds a point-like element, so
    #   no lone ray is ever a singleton, and every filler is a point;
    # * no face enumeration stretches a seed by one of its own members;
    # * so no emitted system repeats a row;
    # * a step's combinations take the ids [first, next_id) in pair order,
    #   all in the zero part, each with its parents' shared columns as its
    #   saturation row, and hard exactly when a parent is and the row is
    #   not strict.
    step, faces = conversion.process_row, conversion.enumerate_faces
    combine, kernel = conversion.combine_adjacent, conversion.adjacent_pairs
    steps = calls = combined = 0
    pairs = []

    def checked_step(ctx, row, role):
        nonlocal steps
        step(ctx, row, role)
        steps += 1
        assert not ctx.singular & ctx.soft
        assert not ctx.singular & ctx.hard
        assert not ctx.soft & ctx.hard
        assert ctx.singular | ctx.soft | ctx.hard == id_mask(ctx.rows)
        assert list(ctx.rows) == sorted(ctx.rows)
        assert ctx.ns == minimal_family(ctx.ns)
        for ns in ctx.ns:
            assert ns.bit_count() >= 2 and ns & ctx.soft == ns
            if ctx.producing is Side.GEN:
                assert any(ctx.rows[e][0] != 0 for e in bit_indices(ns))

    def checked_faces(ctx, seeds, extensions, split):
        nonlocal calls
        calls += 1
        assert not any(seed & extensions for seed in seeds)
        return faces(ctx, seeds, extensions, split)

    def recorded_pairs(*args):
        pairs[:] = kernel(*args)
        return pairs

    def checked_combine(ctx, role, split):
        nonlocal combined
        first, hard = ctx.next_id, ctx.hard
        bits = dict(ctx.sat.bits)
        new_ids = combine(ctx, role, split)
        assert new_ids == list(range(first, ctx.next_id))
        assert len(new_ids) == len(pairs)
        block = id_mask(new_ids)
        assert split.zero & block == block
        for eid, (p, m, _) in zip(new_ids, pairs):
            assert ctx.sat.bits[eid] == bits[p] & bits[m]
            born_hard = role is not Role.HARD and (hard >> p | hard >> m) & 1
            assert ctx.role_of(eid) is (Role.HARD if born_hard else Role.SOFT)
        combined += len(new_ids)
        return new_ids

    def distinct(system):
        rows = [x.row for x in system]
        assert len(set(rows)) == len(rows)

    monkeypatch.setattr(conversion, "process_row", checked_step)
    monkeypatch.setattr(conversion, "enumerate_faces", checked_faces)
    monkeypatch.setattr(conversion, "combine_adjacent", checked_combine)
    monkeypatch.setattr(conversion, "adjacent_pairs", recorded_pairs)
    for dim, rows in nnc_corpus() + closed_corpus() + wide_corpus():
        gens = emit_generators(conversion_c2g(rows, dim=dim))
        distinct(gens)
        if gens:
            distinct(emit_constraints(conversion_g2c(gens)))
    assert steps > 4000 and calls > 20000 and combined > 10000


def gens_within(gens, cons):
    """Is gen(gens) inside con(cons)?  Exact for any system with a point:
    lines and equalities need zero products, points must clear strict rows,
    and nothing may fall below a row."""
    for c in cons:
        for g in gens:
            s = scalar_prod(c.row, g.row)
            if c.kind is ConKind.EQUALITY or g.kind is GenKind.LINE:
                if s != 0:
                    return False
            elif s < 0 or (s == 0 and c.kind is ConKind.STRICT and g.kind is GenKind.POINT):
                return False
    return True


def test_wide_systems_match_the_eps_route():
    # past the acceptance bounds (dim <= 4, <= 10 rows), both directions
    # against the eps route; every inclusion is read off an explicit system,
    # so the engine under test never judges its own output
    for idx, (dim, rows) in enumerate(wide_corpus()):
        gens = emit_generators(conversion_c2g(rows, dim=dim))
        eps_gens, _ = eps.eps_c2g(rows)
        eps_cons, _ = eps.eps_g2c(gens)  # con(eps_cons) = gen(gens)
        assert gens_within(gens, rows), idx
        assert gens_within(eps_gens, eps_cons), idx
        cons = emit_constraints(conversion_g2c(gens))
        assert gens_within(gens, cons), idx
        assert gens_within(eps.eps_c2g(cons)[0], eps_cons), idx


def test_wide_g2c_counters_are_pinned():
    # exact work of one dim-6 g2c past the bench's dim 3, so a charge that
    # moves only on wider input still fails here; the counters model the
    # walks in full: a repeated mask is skipped and charged as walked, and
    # every pair offered is charged its rank quick test
    dim, rows = wide_corpus()[10]
    assert dim == 6
    ctx = conversion_g2c(emit_generators(conversion_c2g(rows, dim=dim)))
    c = ctx.counters
    assert (c.vec_ops, c.sat_ops) == (4202, 124169)
    assert (c.pairs_offered, c.pairs_adjacent) == (27281, 878)
    assert (c.faces_tried, c.faces_walked, c.faces_kept) == (23238, 3816, 67)
    assert (max(c.sizes), len(ctx.ns)) == (90, 0)


def test_wide_g2c_renumbers_without_changing_the_result(monkeypatch):
    # the dim-6 g2c above issues ids far faster than it keeps elements, so
    # step boundaries renumber them; the map keeps the order, so the output
    # and every counter match a run that never renumbers
    dim, rows = wide_corpus()[10]
    gens = emit_generators(conversion_c2g(rows, dim=dim))
    renumber = SatMatrix.renumber
    renumbered = 0

    def counted(sat, order):
        nonlocal renumbered
        renumbered += 1
        renumber(sat, order)

    monkeypatch.setattr(SatMatrix, "renumber", counted)
    ctx = conversion_g2c(gens)
    assert renumbered == 6
    assert ctx.next_id <= 2 * len(ctx.rows) + 64
    monkeypatch.setattr(ConvCtx, "compact_ids", lambda ctx: None)
    sparse = conversion_g2c(gens)
    assert renumbered == 6 and sparse.next_id > 2 * len(sparse.rows) + 64
    assert emit_constraints(ctx) == emit_constraints(sparse)
    assert ctx.counters == sparse.counters


def test_rank_quick_reject_drops_no_adjacent_pair(monkeypatch):
    # the direct engine's counterpart of test_eps's: every pair loop returns,
    # in order, exactly the pairs the same loop returns with no rank bound,
    # each with the columns its rows share
    kernel = conversion.adjacent_pairs
    bounded = rejected = 0

    def checked(sat, pos, neg, witnesses, need=0):
        nonlocal bounded, rejected
        pos, neg = list(pos), list(neg)
        want = kernel(sat.copy(OpCounters()), pos, neg, witnesses)
        got = kernel(sat, pos, neg, witnesses, need)
        assert got == want
        assert all(common == sat.bits[p] & sat.bits[m] for p, m, common in got)
        bounded += need > 0
        rejected += sum((sat.bits[p] & sat.bits[m]).bit_count() < need for p in pos for m in neg)
        return got

    monkeypatch.setattr(conversion, "adjacent_pairs", checked)
    for dim, rows in nnc_corpus() + wide_corpus():
        gens = emit_generators(conversion_c2g(rows, dim=dim))
        if gens:
            conversion_g2c(gens)
    assert bounded > 2000 and rejected > 1_000_000


def test_corpus_c2g_counters_are_pinned():
    # summed exact work of every c2g over the mixed and the wide corpus,
    # which run all three row roles and the line pivot, so that a step edit
    # which moves work on any of them fails here
    keys = ("vec_ops", "sat_ops", "pairs_offered", "pairs_adjacent")
    faces = ("faces_tried", "faces_walked", "faces_kept")
    totals = dict.fromkeys(keys + faces, 0)
    peak = supports_out = 0
    for dim, rows in nnc_corpus() + wide_corpus():
        ctx = conversion_c2g(rows, dim=dim)
        for key in totals:
            totals[key] += getattr(ctx.counters, key)
        peak = max(peak, *ctx.counters.sizes)
        supports_out += len(ctx.ns)
    assert [totals[k] for k in keys] == [17092, 190207, 87206, 4650]
    assert [totals[k] for k in faces] == [13913, 3974, 1211]
    assert (peak, supports_out) == (177, 113)


def test_wrong_side_feeding_raises():
    gen_ctx = universe_gen_ctx(2)
    with pytest.raises(KindError):
        add_generator(gen_ctx, Generator((1, 0, 0), GenKind.POINT))
    with pytest.raises(KindError):
        emit_constraints(gen_ctx)
    con_ctx = conversion_g2c([Generator((1, 0), GenKind.POINT)])
    with pytest.raises(KindError):
        add_constraint(con_ctx, Constraint((0, 1), ConKind.NONSTRICT))
    with pytest.raises(KindError):
        emit_generators(con_ctx)
    with pytest.raises(KindError):
        init_con_ctx(Generator((1, 0), GenKind.CLOSURE_POINT))


def test_dimension_mismatch_raises():
    ctx = universe_gen_ctx(2)
    with pytest.raises(DimensionError):
        process_row(ctx, (1, 0), Role.SOFT)


def test_counters_track_sizes_per_row():
    ctx = conversion_c2g(
        [
            Constraint((1, 1, 0), ConKind.NONSTRICT),
            Constraint((1, -1, 0), ConKind.NONSTRICT),
        ]
    )
    assert ctx.counters.iterations == 2
    assert len(ctx.counters.sizes) == 2
    assert ctx.counters.vec_ops > 0
