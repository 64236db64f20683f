"""Acceptance gate: nine criteria, one printed verdict line each.

Every criterion prints ``criterion N <name>: PASS|FAIL (elapsed)`` so a full
run (``pytest tests/test_acceptance.py -s``) reads as a checklist.  Values
frozen here were derived by hand from the worked examples and cross-checked
against the independent closed-engine and extra-coordinate oracles.
"""

import random
import time

from corpus import (
    build_ctx,
    closed_corpus,
    face_centroid,
    nnc_corpus,
    skeleton_corpus,
)

from nncpoly.bench import bench_dual_hypercube
from nncpoly.conversion import (
    ConvCtx,
    Role,
    Side,
    add_constraint,
    conversion_c2g,
    conversion_g2c,
    emit_generators,
    process_row,
    universe_gen_ctx,
)
from nncpoly.eps import closed_c2g, closed_generators, eps_c2g
from nncpoly.polyhedron import NncPolyhedron
from nncpoly.oracle import alpha, face_supports, gamma_contains
from nncpoly.satlat import mask_ids, minimal_family
from nncpoly.systems import ConKind, Constraint, GenKind, Generator


def _verdict(label: str, bound_s: float, start: float, failures: list[str]) -> None:
    elapsed = time.perf_counter() - start
    status = "PASS" if not failures and elapsed < bound_s else "FAIL"
    print(f"criterion {label}: {status} ({elapsed:.2f}s, bound {bound_s:.0f}s)")
    assert not failures, f"{len(failures)} failures, first: " + "; ".join(failures[:3])
    assert elapsed < bound_s, f"{label} took {elapsed:.2f}s, bound {bound_s:.0f}s"


def _poly_from_gen_ctx(ctx: ConvCtx, dim: int) -> NncPolyhedron:
    gens = emit_generators(ctx)
    if not gens:
        return NncPolyhedron.empty(dim)
    return NncPolyhedron.from_generators(gens)


# -- criterion 1: worked examples -----------------------------------------


def _square_ctx(ns):
    """Closure-point square [0,2]^2, one saturation column per facet."""
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


def test_criterion_1_worked_examples():
    start = time.perf_counter()
    failures: list[str] = []

    def check(name, got, want):
        if got != want:
            failures.append(f"{name}: got {got!r}, want {want!r}")

    fs = frozenset

    def supports(ctx):
        return {mask_ids(ns) for ns in ctx.ns}

    # (a) support family of the square with one open corner: closure-point
    # vertices c0=(0,0), c1=(2,0), c2=(2,2) and skeleton point p0=(0,2)
    skel = [
        Generator((1, 0, 0), GenKind.CLOSURE_POINT),
        Generator((1, 2, 0), GenKind.CLOSURE_POINT),
        Generator((1, 2, 2), GenKind.CLOSURE_POINT),
        Generator((1, 0, 2), GenKind.POINT),
    ]
    cons = [
        Constraint((0, 1, 0), ConKind.NONSTRICT),
        Constraint((0, 0, 1), ConKind.NONSTRICT),
        Constraint((2, -1, 0), ConKind.NONSTRICT),
        Constraint((2, 0, -1), ConKind.NONSTRICT),
    ]
    at_vertex = alpha([(0, 2)], skel, cons)
    check(
        "family at the included vertex",
        at_vertex,
        {fs({3}), fs({0, 3}), fs({2, 3}), fs({0, 1, 2, 3})},
    )
    on_edge = alpha([(1, 0)], skel, cons)
    check("family on the closed bottom edge", on_edge, {fs({0, 1}), fs({0, 1, 2, 3})})
    both = alpha([(0, 2), (1, 0)], skel, cons)
    check("family of both points", both, at_vertex | on_edge)
    check("minimal form", minimal_family(both), {fs({3}), fs({0, 1})})

    # (b) a support crossing a strict cut moves onto the cut plane
    ctx = _square_ctx([{0, 3}])
    process_row(ctx, (1, 0, -1), Role.HARD)
    check("move across strict cut", supports(ctx), {fs({0, 4})})
    check("moved combination", ctx.rows[4], (1, 0, 1))

    # (c) the same cut made nonstrict leaves a singleton that promotes
    ctx = _square_ctx([{0, 3}])
    process_row(ctx, (1, 0, -1), Role.SOFT)
    check("promotion emptied the family", supports(ctx), set())
    check("promoted element role", ctx.role_of(4), Role.HARD)

    # (d) a support entirely beyond a strict cut is recreated from the
    # surviving side
    ctx = _square_ctx([{2, 3}])
    process_row(ctx, (1, 0, -1), Role.HARD)
    check("create across strict cut", supports(ctx), {fs({0, 1, 4, 5})})

    # (e) a doomed closure point's face is recorded as a support seeded by a
    # skeleton point: diamond c0=(0,1), c1=(1,2), c2=(2,1), p=(1,0), cut y<=1
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
    check("create across nonstrict cut", supports(ctx), {fs({0, 2})})
    check("surviving elements", set(ctx.rows), {0, 2, 3})

    _verdict("1 worked-examples", 1.0, start, failures)


# -- criterion 2: the support-family Galois pair ---------------------------


def test_criterion_2_support_family_galois():
    start = time.perf_counter()
    failures: list[str] = []
    rng = random.Random(77)
    for idx, (skel, cons) in enumerate(skeleton_corpus(100)):
        lattice = face_supports(skel, cons)
        ordered = sorted(lattice, key=sorted)

        # abstraction after concretization is the identity on upward closed
        # families: describe the family by points, abstract them back
        seeds = rng.sample(ordered, rng.randint(0, min(3, len(ordered))))
        family = {t for t in lattice if any(s <= t for s in seeds)}
        points = [face_centroid(skel, s) for s in minimal_family(family)]
        got = alpha(points, skel, cons)
        if got != family:
            failures.append(f"item {idx}: abstraction changed the family")
            continue

        # concretization after abstraction covers the sampled points
        sample = [
            face_centroid(skel, s)
            for s in rng.sample(ordered, rng.randint(1, min(3, len(ordered))))
        ]
        described = alpha(sample, skel, cons)
        for p in sample:
            if not gamma_contains(described, skel, p):
                failures.append(f"item {idx}: sampled point {p} not covered")
                break
    _verdict("2 support-family-galois", 10.0, start, failures)


# -- criterion 3: representation round trip --------------------------------


def test_criterion_3_roundtrip():
    start = time.perf_counter()
    failures: list[str] = []
    for idx, (dim, rows) in enumerate(nnc_corpus(200)):
        poly = NncPolyhedron.from_constraints(rows, dim)
        back = NncPolyhedron.from_constraints(poly.constraints(), dim)
        if not poly.equals(back):
            failures.append(f"item {idx}: round trip changed the polyhedron")
    _verdict("3 roundtrip", 60.0, start, failures)


# -- criterion 4: agreement with the extra-coordinate oracle ---------------


def test_criterion_4_eps_oracle_equivalence():
    start = time.perf_counter()
    failures: list[str] = []
    for idx, (dim, rows) in enumerate(nnc_corpus(200)):
        poly = NncPolyhedron.from_constraints(rows, dim)
        gens, _ = eps_c2g(rows)
        oracle = (
            NncPolyhedron.from_generators(gens) if gens else NncPolyhedron.empty(dim)
        )
        if not poly.equals(oracle):
            failures.append(f"item {idx}: engines disagree")
    _verdict("4 eps-oracle-equivalence", 120.0, start, failures)


# -- criterion 5: closed inputs regress to the classical algorithm ---------


def test_criterion_5_closed_regression():
    start = time.perf_counter()
    failures: list[str] = []
    for idx, (dim, rows) in enumerate(closed_corpus(100)):
        ctx = universe_gen_ctx(dim)
        for c in rows:
            add_constraint(ctx, c)
            if ctx.ns:
                failures.append(f"item {idx}: supports appeared on closed input")
                break
        else:
            new_poly = _poly_from_gen_ctx(ctx, dim)
            cone = closed_c2g(rows, dim=dim)
            cgens = closed_generators(cone)
            closed_poly = (
                NncPolyhedron.from_generators(cgens)
                if cgens
                else NncPolyhedron.empty(dim)
            )
            if not new_poly.equals(closed_poly):
                failures.append(f"item {idx}: closed results differ")
            new_ops = ctx.counters.vec_ops
            ref_ops = cone.counters.vec_ops
            if abs(new_ops - ref_ops) > 0.1 * max(ref_ops, 1):
                failures.append(
                    f"item {idx}: vec_ops {new_ops} vs closed {ref_ops} beyond 10%"
                )
    _verdict("5 closed-regression", 60.0, start, failures)


# -- criterion 6: the extra coordinate costs vector operations -------------


def test_criterion_6_eps_overhead():
    start = time.perf_counter()
    failures: list[str] = []
    corpus = closed_corpus(100)
    wins = 0
    for dim, rows in corpus:
        new_ops = conversion_c2g(rows, dim=dim).counters.vec_ops
        _, cone = eps_c2g(rows)
        if cone.counters.vec_ops > new_ops:
            wins += 1
    share = wins / len(corpus)
    if share < 0.90:
        failures.append(f"extra-coordinate route cheaper too often: {share:.0%} wins")
    print(f"  (extra-coordinate route costlier on {share:.0%} of closed systems)")
    _verdict("6 eps-overhead", 120.0, start, failures)


# -- criterion 7: incremental equals one-shot ------------------------------


def test_criterion_7_incrementality():
    start = time.perf_counter()
    failures: list[str] = []
    rng = random.Random(3141)
    for idx, (dim, rows) in enumerate(nnc_corpus(200)[:100]):
        k = rng.randint(0, len(rows))
        one_shot = NncPolyhedron.from_constraints(rows, dim)
        staged = NncPolyhedron.from_constraints(rows[:k], dim).add_constraints(rows[k:])
        if not one_shot.equals(staged):
            failures.append(f"item {idx}: staging at row {k} changed the result")
    _verdict("7 incrementality", 60.0, start, failures)


# -- criterion 8: non-redundancy of every output ---------------------------


def _support_discipline(ctx: ConvCtx, where: str, failures: list[str]) -> None:
    live = set(ctx.rows)
    hard = mask_ids(ctx.hard)
    supports = [mask_ids(ns) for ns in ctx.ns]
    for ns in supports:
        if len(ns) < 2:
            failures.append(f"{where}: singleton support {sorted(ns)}")
        if not ns <= live:
            failures.append(f"{where}: support {sorted(ns)} names dropped elements")
        if ns & hard:
            failures.append(f"{where}: support {sorted(ns)} touches a skeleton point")
    for a in supports:
        for b in supports:
            if a is not b and a <= b:
                failures.append(f"{where}: nested supports {sorted(a)} <= {sorted(b)}")


def test_criterion_8_non_redundancy():
    start = time.perf_counter()
    failures: list[str] = []

    for idx, (dim, rows) in enumerate(nnc_corpus(200)):
        ctx = conversion_c2g(rows, dim=dim)
        _support_discipline(ctx, f"mixed {idx} generator side", failures)
        gens = emit_generators(ctx)
        if gens:
            back = conversion_g2c(gens)
            _support_discipline(back, f"mixed {idx} constraint side", failures)

        # skeleton minimality: dropping any element changes the set
        if dim <= 3 and gens:
            poly = NncPolyhedron.from_generators(gens)
            for eid in list(ctx.rows):
                cut = ctx.clone()
                cut.drop(1 << eid)
                cut.ns = {s for s in cut.ns if not s >> eid & 1}
                mutilated = _poly_from_gen_ctx(cut, dim)
                if mutilated.equals(poly):
                    failures.append(f"mixed {idx}: element {eid} is redundant")

    for idx, (dim, rows) in enumerate(closed_corpus(100)):
        _support_discipline(
            conversion_c2g(rows, dim=dim), f"closed {idx} generator side", failures
        )

    _verdict("8 non-redundancy", 120.0, start, failures)


# -- criterion 9: intermediate sizes on the cross-polytope workload --------


def test_criterion_9_dual_hypercube_bench():
    start = time.perf_counter()
    failures: list[str] = []
    report = bench_dual_hypercube(4)
    new_max = report["new"]["max_size"]
    eps_max = report["eps"]["max_size"]
    print(f"  (max intermediate size: new {new_max}, extra-coordinate {eps_max})")
    if not new_max < eps_max:
        failures.append(f"new engine peaked at {new_max}, oracle at {eps_max}")
    _verdict("9 dual-hypercube-bench", 60.0, start, failures)
