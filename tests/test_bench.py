import pytest

from nncpoly.bench import bench_dual_hypercube, build_dual_hypercube
from nncpoly.errors import DimensionError
from nncpoly.systems import ConKind


def test_build_row_count_and_patterns():
    poles = build_dual_hypercube(3, offset=1, pattern="poles")
    assert len(poles) == 8
    nonstrict = [c for c in poles if c.kind is ConKind.NONSTRICT]
    assert [c.row for c in nonstrict] == [(1, -1, -1, -1), (1, 1, 1, 1)]

    first = build_dual_hypercube(3, offset=2, pattern="first")
    assert [c.kind is ConKind.NONSTRICT for c in first[:3]] == [True, True, False]
    assert first[0].row[0] == 2


def test_build_rejects_bad_arguments():
    with pytest.raises(DimensionError):
        build_dual_hypercube(0)
    with pytest.raises(ValueError):
        build_dual_hypercube(2, offset=0)
    with pytest.raises(ValueError):
        build_dual_hypercube(2, pattern="spiral")


def test_bench_report_shape():
    rep = bench_dual_hypercube(2)
    assert rep["dim"] == 2
    for route in ("new", "eps"):
        assert rep[route]["max_size"] > 0
        assert rep[route]["vec_ops"] > 0
    # the direct route must not carry larger intermediate systems
    assert rep["new"]["max_size"] <= rep["eps"]["max_size"]

    # exact vector work and peak sizes at dim 3: a kernel change must not
    # move them
    rep = bench_dual_hypercube(3)
    assert (rep["new"]["vec_ops"], rep["new"]["max_size"]) == (556, 8)
    assert (rep["eps"]["vec_ops"], rep["eps"]["max_size"]) == (1714, 18)
    # saturation work: each route's closures and row intersections (direct
    # 492, eps 1600) plus its rank quick tests, one per positive/negative
    # pair offered (direct 83, eps 666)
    assert rep["new"]["sat_ops"] == 575
    assert rep["eps"]["sat_ops"] == 2266
    # pairs handed to the adjacency kernel, and those found adjacent (each
    # one combination); the eps route offers every pair, quick test or not
    assert (rep["new"]["pairs_offered"], rep["new"]["pairs_adjacent"]) == (83, 63)
    assert (rep["eps"]["pairs_offered"], rep["eps"]["pairs_adjacent"]) == (666, 201)
    # face closures of the direct engine: tried, walked (first seen in the
    # step: a repeated mask is skipped and charged as walked) and kept (not
    # dropped at birth); the eps route closes none
    faces = ("faces_tried", "faces_walked", "faces_kept")
    assert tuple(rep["new"][k] for k in faces) == (34, 34, 15)
    assert not set(faces) & set(rep["eps"])
