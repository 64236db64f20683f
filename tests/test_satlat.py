import random
from dataclasses import fields
from fractions import Fraction

import pytest

from nncpoly.conversion import (
    ConvCtx,
    Role,
    Side,
    _Split,
    conversion_g2c,
    enumerate_faces,
    move_ns,
    process_row,
)
from nncpoly.errors import EmptySupportError, InvalidVector, ScaleLimitExceeded
from nncpoly.oracle import alpha, face_supports, gamma
from nncpoly.satlat import (
    SatMatrix,
    adjacent,
    adjacent_pairs,
    bit_indices,
    id_mask,
    mask_ids,
    minimal_family,
    nonredundant_union,
    supp_cl,
)
from nncpoly.systems import ConKind, Constraint, GenKind, Generator


def small_matrix() -> SatMatrix:
    """Rows 0..3, cols 0..2:

        col    0  1  2
    row 0      x  x  .
    row 1      x  .  x
    row 2      .  x  x
    row 3      x  x  x
    """
    sat = SatMatrix()
    for eid in range(4):
        sat.new_row(eid)
    sat.add_col({0, 1, 3})
    sat.add_col({0, 2, 3})
    sat.add_col({1, 2, 3})
    return sat


def test_satmatrix_rows_and_cols():
    sat = small_matrix()
    assert len(sat.cols) == 3
    assert sat.bits[0] == 0b011
    assert sat.bits[3] == 0b111
    sat.drop(id_mask({0, 2}))
    assert set(sat.bits) == {1, 3}


@pytest.mark.parametrize("seed", range(8))
def test_new_rows_matches_repeated_new_row(seed):
    # one block of rows, some of them empty, lands as the same rows and
    # columns as adding each in turn, also on a matrix whose columns
    # already hold earlier and dropped ids
    rng = random.Random(seed)
    sat, live = random_state(rng)
    ncols = len(sat.cols)
    issued = max([max(sat.bits) + 1] + [col.bit_length() for col in sat.cols])
    first = issued + rng.randint(0, 3)
    masks = [rng.getrandbits(ncols) if rng.random() < 0.7 else 0 for _ in range(rng.randint(0, 40))]
    masks.insert(rng.randint(0, len(masks)), 0)
    one_by_one = sat.copy(sat.counters)
    for eid, mask in enumerate(masks, start=first):
        one_by_one.new_row(eid, mask)
    sat.new_rows(first, masks)
    assert sat.bits == one_by_one.bits
    assert list(sat.bits) == list(one_by_one.bits)
    assert sat.cols == one_by_one.cols
    check_columns(sat, set(live) | set(range(first, first + len(masks))))


def test_and_rows_counts_and_masks():
    sat = small_matrix()
    before = sat.counters.sat_ops
    assert sat.and_rows([0, 1]) == 0b001
    assert sat.counters.sat_ops == before + 2
    with pytest.raises(EmptySupportError):
        sat.and_rows([])


def test_adjacent_counts_and_rows_plus_one_op_per_shared_column():
    sat = small_matrix()
    before = sat.counters.sat_ops
    # rows 1 and 3 share cols 0 and 2; no other row saturates both; the
    # pair's rank quick test counts one more
    assert adjacent(sat, 1, 3, witnesses=id_mask(range(4)))
    assert sat.counters.sat_ops == before + 1 + 2 + 2


def test_supp_cl_closes_to_common_saturators():
    sat = small_matrix()
    # rows 0 and 1 share only col 0; rows saturating col 0 are 0, 1, 3
    assert mask_ids(supp_cl(sat, [0, 1], id_mask(range(4)))) == frozenset({0, 1, 3})
    assert mask_ids(supp_cl(sat, [0, 1], id_mask([0, 1, 2]))) == frozenset({0, 1})


def test_supp_cl_counts_one_op_per_member_and_column():
    sat = small_matrix()
    before = sat.counters.sat_ops
    # rows 0 and 3 share cols 0 and 1
    assert mask_ids(supp_cl(sat, [0, 3], id_mask(range(4)))) == frozenset({0, 3})
    assert sat.counters.sat_ops == before + 2 + 2


def check_columns(sat: SatMatrix, live: set[int]) -> None:
    """On live ids the columns are the transposed rows."""
    for c in range(len(sat.cols)):
        assert mask_ids(sat.cols[c] & id_mask(live)) == {e for e in live if sat.bits[e] >> c & 1}


@pytest.mark.parametrize("seed", range(8))
def test_mask_closure_matches_row_scan(seed):
    rng = random.Random(seed)
    sat = SatMatrix()
    live: set[int] = set()
    next_id = 0
    stale_seen = 0
    early_seen = 0
    for _ in range(300):
        op = rng.choices(["new", "drop", "col", "copy"], [6, 3, 3, 1])[0]
        if op == "new":
            sat.new_row(next_id, rng.getrandbits(len(sat.cols)) if sat.cols else 0)
            live.add(next_id)
            next_id += 1
        elif op == "drop" and live:
            sat.drop(1 << rng.choice(sorted(live)))
            live &= set(sat.bits)
        elif op == "col":
            sat.add_col(e for e in sorted(live) if rng.random() < 0.5)
        elif op == "copy":
            # mutating the original leaves the copy alone
            twin = sat.copy(sat.counters)
            frozen = (dict(twin.bits), list(twin.cols))
            sat.add_col(sorted(live))
            sat.new_row(next_id, (1 << len(sat.cols)) - 1)
            next_id += 1
            assert (twin.bits, twin.cols) == frozen
            sat = twin
        check_columns(sat, live)
        # no row carries a bit at or above len(cols), so and_rows needs no mask
        assert all(sat.bits[e] >> len(sat.cols) == 0 for e in live)
        stale_seen += any(col & ~id_mask(live) for col in sat.cols)
        if not live:
            continue
        members = rng.sample(sorted(live), rng.randint(1, min(3, len(live))))
        cands = {e for e in live if rng.random() < 0.7}
        common = -1
        for m in members:
            common &= sat.bits[m]
        want = {e for e in cands if sat.bits[e] & common == common}
        before = sat.counters.sat_ops
        assert mask_ids(supp_cl(sat, members, id_mask(cands))) == want
        charged = len(members) + common.bit_count()
        assert sat.counters.sat_ops == before + charged
        if common.bit_count() > 1:
            # candidates that all miss the lowest shared column: the walk
            # empties at once, yet every shared column is still charged
            low = (common & -common).bit_length() - 1
            missing = {e for e in live if not sat.bits[e] >> low & 1}
            if missing:
                early_seen += 1
                before = sat.counters.sat_ops
                got = mask_ids(supp_cl(sat, members, id_mask(missing)))
                assert got == {e for e in missing if sat.bits[e] & common == common}
                assert sat.counters.sat_ops == before + charged
        # adjacency against its definition: no third witness saturates
        # every column the pair shares
        if len(live) > 1:
            a, b = rng.sample(sorted(live), 2)
            pair = sat.bits[a] & sat.bits[b]
            blocked = any(sat.bits[w] & pair == pair for w in cands - {a, b})
            assert adjacent(sat, a, b, id_mask(cands)) is not blocked
    # dropped ids linger in the columns; the live-id mask hides them
    assert stale_seen
    assert early_seen


def test_renumber_keeps_the_order_and_clears_dead_ids():
    # renumbering moves the live rows to ids 0..n-1 in order and rebuilds
    # the columns from them, so no dropped id's bit is left behind
    stale_seen = 0
    for seed in range(8):
        sat, live = random_state(random.Random(seed))
        rows = [sat.bits[e] for e in live]
        ncols = len(sat.cols)
        stale_seen += any(col & ~id_mask(live) for col in sat.cols)
        sat.renumber(live)
        assert list(sat.bits.items()) == list(enumerate(rows))
        assert len(sat.cols) == ncols
        check_columns(sat, set(range(len(live))))
        assert all(col >> len(live) == 0 for col in sat.cols)
    assert stale_seen


def test_clone_leaves_parent_columns_alone():
    parent = conversion_g2c(
        [Generator((1, 0, 0), GenKind.POINT), Generator((1, 2, 0), GenKind.CLOSURE_POINT)]
    )
    before = (dict(parent.sat.bits), list(parent.sat.cols))
    rows = dict(parent.rows)
    roles = (parent.singular, parent.soft, parent.hard)
    child = parent.clone()
    # every field is carried over; the mutable ones as copies
    for f in fields(ConvCtx):
        assert getattr(child, f.name) == getattr(parent, f.name), f.name
    for name in ("rows", "ns", "sat", "counters"):
        assert getattr(child, name) is not getattr(parent, name), name
    assert child.sat.counters is child.counters
    # a role change on the clone moves its masks alone
    hard = next(bit_indices(child.hard))
    child.set_role(1 << hard, Role.SOFT)
    assert child.role_of(hard) is Role.SOFT and not child.hard >> hard & 1
    # the point (1, 2) breaks the equality y = 0: violating_singular pivots
    # it and writes the rewritten rows into the clone's dict
    (line,) = bit_indices(parent.singular)
    process_row(child, (1, 1, 2), Role.HARD)
    assert child.role_of(line) is Role.SOFT
    assert any(child.rows[i] != r for i, r in rows.items() if i in child.rows)
    process_row(child, (1, 0, 1), Role.SOFT)
    child.set_empty()
    assert (dict(parent.sat.bits), list(parent.sat.cols)) == before
    assert parent.rows == rows
    assert (parent.singular, parent.soft, parent.hard) == roles


def random_state(rng: random.Random) -> tuple[SatMatrix, list[int]]:
    """A saturation matrix as a run leaves it, and its live ids: dropped
    rows linger in the columns, and about a third of the rows repeat an
    earlier one, so that faces share their columns."""
    sat = SatMatrix()
    ncols = rng.randint(8, 14)
    for _ in range(ncols):
        sat.add_col(())
    n = rng.randint(12, 18)
    for eid in range(n):
        again = eid and rng.random() < 0.3
        sat.new_row(eid, sat.bits[rng.randrange(eid)] if again else rng.getrandbits(ncols))
    live = [e for e in range(n) if rng.random() < 0.9]
    sat.drop(id_mask(set(range(n)) - set(live)))
    return sat, live


def shared_columns(sat: SatMatrix, ids) -> int:
    common = -1
    for eid in ids:
        common &= sat.bits[eid]
    return common


@pytest.mark.parametrize("seed", range(8))
def test_adjacent_pairs_match_per_pair_closures(seed):
    rng = random.Random(seed)
    sat = SatMatrix()
    ids = range(rng.randint(12, 18))
    for eid in ids:
        sat.new_row(eid)
    ncols = rng.randint(8, 14)
    for _ in range(ncols):
        sat.add_col(e for e in ids if rng.random() < 0.5)
    live = [e for e in ids if rng.random() < 0.9]
    rng.shuffle(live)
    third = len(live) // 3
    pos, neg = sorted(live[:third]), sorted(live[third:2 * third])
    # a positive element saturating just what the first pair shares meets
    # the first negative one in the same columns: a repeated mask
    twin = max(sat.bits) + 1
    sat.new_row(twin, sat.bits[pos[0]] & sat.bits[neg[0]])
    pos.append(twin)
    witnesses = id_mask(live + [twin])  # the zero part witnesses too
    commons = [sat.bits[p] & sat.bits[m] for p in pos for m in neg]
    assert len(set(commons)) < len(commons)
    shared = {(p, m): (sat.bits[p] & sat.bits[m]).bit_count() for p in pos for m in neg}
    next_id = twin + 1
    for need in (0, 1, 4, ncols + 1):
        # the definition: per pair, the closure of {p, m} over the other
        # witnesses is empty; a pair sharing fewer than need columns is
        # skipped before its closure
        want, charged, seen, repeats = [], 0, set(), 0
        for p in pos:
            for m in neg:
                if shared[p, m] < need:
                    continue
                before = sat.counters.sat_ops
                closure = supp_cl(sat, (p, m), witnesses & ~(1 << p | 1 << m))
                if closure == 0:
                    want.append((p, m))
                charged += sat.counters.sat_ops - before
                # the rule the kernel's skip rests on: a pair whose shared
                # columns repeat an earlier pair's is never adjacent
                common = sat.bits[p] & sat.bits[m]
                if common in seen:
                    assert closure, (p, m)
                    repeats += 1
                seen.add(common)
        # the kernel; each pair comes with the columns its rows share
        before = sat.counters.sat_ops
        found = adjacent_pairs(sat, pos, neg, witnesses, need)
        # one quick test per pair offered, then the closures of those passing
        assert sat.counters.sat_ops == before + len(pos) * len(neg) + charged
        got = [(p, m) for p, m, _ in found]
        assert got == want
        assert all(common == sat.bits[p] & sat.bits[m] for p, m, common in found)
        # a row added per pair found, as combine_adjacent does, is no
        # witness of a later call: one that saturates every column would
        # block every pair if it counted
        sat.new_rows(next_id, [(1 << ncols) - 1] * len(found))
        next_id += len(found)
        if need == 0:
            assert got and repeats
            adjacent_at_0 = got
        else:
            # need drops exactly the pairs sharing fewer columns, charged
            # their quick test alone
            assert got == [pm for pm in adjacent_at_0 if shared[pm] >= need]
    assert charged == 0


@pytest.mark.parametrize("seed", range(8))
def test_step_face_closures_skip_walked_masks(seed):
    rng = random.Random(seed)
    sat, live = random_state(rng)
    ctx = ConvCtx(dim=1, producing=Side.CON, sat=sat)
    cands = id_mask(e for e in live if rng.random() < 0.9)
    members = list(bit_indices(cands))
    keep = id_mask(e for e in members if rng.random() < 0.6)
    dead = id_mask(e for e in bit_indices(keep) if rng.random() < 0.2)
    split = _Split({}, 0, 0, 0, cands=cands, keep=keep, dead=dead)
    counters = ctx.counters
    walked_masks: set[int] = set()
    surviving: set[int] = set()  # every supp_cl face of the step that survives
    returned: set[int] = set()  # every face the step's calls return

    def check(closed, supports):
        """Compare one call of the step with supp_cl on each support: the
        call returns the surviving kept parts (not empty, meeting no dead
        element) of the supports whose shared columns no earlier call of
        the step walked, and charges every support as supp_cl does, walked
        or skipped; a repeated mask is skipped."""
        want, charged, fresh, kept, skipped = set(), 0, set(), 0, 0
        for ids in supports:
            before = counters.sat_ops
            face = supp_cl(sat, ids, cands) & keep
            charged += counters.sat_ops - before
            survives = face and not face & dead
            if survives:
                surviving.add(face)
            common = shared_columns(sat, ids)
            if common in walked_masks:
                skipped += 1
                continue
            if survives:
                want.add(face)
            if common not in fresh:
                fresh.add(common)
                kept += bool(survives)
        before = (counters.sat_ops, counters.faces_tried, counters.faces_walked, counters.faces_kept)
        got = closed()
        assert got == want
        after = (counters.sat_ops, counters.faces_tried, counters.faces_walked, counters.faces_kept)
        assert [b - a for a, b in zip(before, after)] == [charged, len(supports), len(fresh), kept]
        walked_masks.update(fresh)
        returned.update(got)
        return fresh, skipped

    # as in the engine, seeds and extensions come from disjoint parts
    part = rng.sample(members, len(members) // 2)
    far = [e for e in members if e not in part]
    seeds = [id_mask(rng.sample(part, rng.randint(1, 3))) for _ in range(5)]
    exts = id_mask(rng.sample(far, min(6, len(far))))
    stretched = [list(bit_indices(seed)) + [s] for seed in seeds for s in bit_indices(exts)]
    fresh, _ = check(lambda: enumerate_faces(ctx, seeds, exts, split), stretched)
    assert len(fresh) < len(stretched)  # some masks repeat within the call
    # moved supports close alone on the same split; one of them is a
    # stretched seed, whose mask enumerate_faces already walked
    # (every support meets both sides of the step)
    mixed = set(seeds) | {id_mask(stretched[0])}
    ctx.ns = mixed
    split.pos, split.neg = cands, cands
    _, skipped = check(lambda: move_ns(ctx, split), [list(bit_indices(ns)) for ns in mixed])
    assert skipped
    # nothing is lost: the step's calls return every surviving face between them
    assert returned == surviving


def test_adjacent_blocked_by_witness():
    sat = small_matrix()
    # 0 and 1 share col 0, which row 3 also saturates
    assert not adjacent(sat, 0, 1, witnesses=id_mask(range(4)))
    assert adjacent(sat, 0, 1, witnesses=id_mask([0, 1, 2]))


def test_nonredundant_union_drops_supersets():
    fam1 = {id_mask({1, 2}), id_mask({1, 2, 3})}
    fam2 = {id_mask({4, 5}), id_mask({2, 1})}
    out = nonredundant_union(fam1, fam2)
    assert {mask_ids(ns) for ns in out} == {frozenset({1, 2}), frozenset({4, 5})}


SQUARE_SKEL = [
    Generator((1, 0, 0), GenKind.CLOSURE_POINT),
    Generator((1, 2, 0), GenKind.CLOSURE_POINT),
    Generator((1, 2, 2), GenKind.CLOSURE_POINT),
    Generator((1, 0, 2), GenKind.POINT),
]
SQUARE_CONS = [
    Constraint((0, 1, 0), ConKind.NONSTRICT),
    Constraint((0, 0, 1), ConKind.NONSTRICT),
    Constraint((2, -1, 0), ConKind.NONSTRICT),
    Constraint((2, 0, -1), ConKind.NONSTRICT),
]


def test_face_supports_square():
    lat = face_supports(SQUARE_SKEL, SQUARE_CONS)
    assert lat == {
        frozenset(s)
        for s in (
            [0], [1], [2], [3],
            [0, 1], [1, 2], [2, 3], [0, 3],
            [0, 1, 2, 3],
        )
    }


def test_face_supports_excludes_line_indices():
    skel = [
        Generator((1, 0, 0), GenKind.POINT),
        Generator((0, 1, 0), GenKind.RAY),
        Generator((0, 1, 1), GenKind.RAY),
    ]
    cons = [
        Constraint((0, 0, 1), ConKind.NONSTRICT),
        Constraint((0, 1, -1), ConKind.NONSTRICT),
    ]
    lat = face_supports(skel, cons)
    assert lat == {
        frozenset(s) for s in ([0], [0, 1], [0, 2], [0, 1, 2])
    }


def test_alpha_vertex_and_edge():
    a_vertex = alpha([[0, 2]], SQUARE_SKEL, SQUARE_CONS)
    assert a_vertex == {
        frozenset({3}),
        frozenset({0, 3}),
        frozenset({2, 3}),
        frozenset({0, 1, 2, 3}),
    }
    a_edge = alpha([[1, 0]], SQUARE_SKEL, SQUARE_CONS)
    assert a_edge == {frozenset({0, 1}), frozenset({0, 1, 2, 3})}


def test_alpha_rejects_outside_point():
    with pytest.raises(InvalidVector):
        alpha([[5, 5]], SQUARE_SKEL, SQUARE_CONS)


def test_minimal_family():
    # one body serves the public frozenset API and the engine's id masks;
    # as masks {0, 1} is 3 and {3} is 8: smaller, yet not included
    for support in (frozenset, id_mask):
        fam = {support({3}), support({0, 3}), support({0, 1})}
        assert minimal_family(fam) == {support({3}), support({0, 1})}


def test_gamma_covers_faces_above_each_support():
    fam = {frozenset({3}), frozenset({0, 1})}
    inside = gamma(fam, SQUARE_SKEL)
    for pt in ([0, 2], [1, 0], [1, 1], [0, 1], [1, 2], [Fraction(1, 2), 0]):
        assert inside(pt), pt
    for pt in ([0, 0], [2, 0], [2, 2], [2, 1], [2, Fraction(1, 2)]):
        assert not inside(pt), pt


def test_gamma_alpha_galois_roundtrip():
    # materializing a point and asking gamma about it must come back true
    for pt in ([0, 2], [1, 0], [1, 1], [0, 1]):
        fam = alpha([pt], SQUARE_SKEL, SQUARE_CONS)
        assert gamma(fam, SQUARE_SKEL)(pt)


def test_scale_guard():
    big_skel = [
        Generator((1, i, 0, 0), GenKind.POINT) for i in range(9)
    ]
    with pytest.raises(ScaleLimitExceeded):
        face_supports(big_skel, [])
