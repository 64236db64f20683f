"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.require_src()

import cases  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def plain(fn, *args):
    return fn(*args)


def test_inputs_are_deterministic_per_seed():
    for name, cls in workloads.WORKLOADS.items():
        a, b, c = cls(5), cls(5), cls(6)
        assert a.case_ids() == b.case_ids(), name
        assert a.syms == b.syms, name
        assert a.syms != c.syms, name
    assert workloads.C2GMixed(5).texts == workloads.C2GMixed(5).texts
    assert workloads.C2GMixed(5).texts != workloads.C2GMixed(6).texts
    assert workloads.Lattice(5).inputs == workloads.Lattice(5).inputs
    assert cases.c2g_corpus() == cases.c2g_corpus()
    assert cases.lattice_corpus() == cases.lattice_corpus()


def test_symmetry_inverts():
    sym = cases.symmetry(3, "x", 0, 4)
    row = (7, 1, -2, 3, -4)
    assert sym.invert(sym.apply(row)) == row
    assert sorted(sym.perm) == [0, 1, 2, 3]


def test_digests_do_not_depend_on_the_seed():
    # The recorded digests are in base coordinates, so every seed must map
    # its outputs back onto them.
    recorded = json.loads(run.DIGESTS.read_text())["c2g-mixed"]["ok"]
    for seed in (1, 2):
        w = workloads.C2GMixed(seed)
        for cid in range(5):
            assert w.run_case(cid, plain).digest() == recorded[str(cid)]


def test_left_out_lattice_programs_are_still_wrong():
    # These programs are left out of the timed lattice workload because the
    # direct engine joins them wrongly.  Once this fails, the engine's output
    # on them changed: rerun record.py lattice, and if they turn "ok", empty
    # cases.LATTICE_KNOWN_WRONG so that they are timed again.
    wrong = json.loads(run.DIGESTS.read_text())["lattice"]["wrong"]
    assert sorted(int(c) for c in wrong) == list(cases.LATTICE_KNOWN_WRONG)
    w = workloads.Lattice(3)
    assert not set(w.case_ids()) & set(cases.LATTICE_KNOWN_WRONG)
    assert len(w.case_ids()) == w.count - len(cases.LATTICE_KNOWN_WRONG)
    for cid in cases.LATTICE_KNOWN_WRONG:
        assert w.run_case(cid, plain).digest() == wrong[str(cid)], cid


def test_self_times_on_a_nested_trace():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has children
    # c [6, 8] and a second a [8.5, 8.75]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 8.0, 2, 0],
        ["a", 8.5, 8.75, 2, 0],
    ]
    got = tracer.self_times(spans)
    assert got["root"] == (1, pytest.approx(10 - 3 - 4))
    assert got["a"] == (2, pytest.approx(3 + 0.25))
    assert got["b"] == (1, pytest.approx(4 - 2 - 0.25))
    assert got["c"] == (1, pytest.approx(2))
    assert tracer.child_counts(spans, "a", "b") == 1
    assert tracer.child_counts(spans, "a", "root") == 1


def _runs(w, ids, tr=None):
    out = {}
    for cid in ids:
        if tr is not None:
            tr.begin(cid)
        out[cid] = w.run_case(cid, plain)
        if tr is not None:
            tr.end()
    return {c: (r.tokens, r.counters) for c, r in out.items()}


@pytest.mark.parametrize("name,ids", [
    ("c2g-mixed", range(6)),
    ("g2c-points", range(4)),
    ("lattice", range(3)),
    ("dualhypercube", [0, 1, 6, 7]),
])
def test_tracing_changes_no_output_and_no_counter(name, ids):
    w = workloads.WORKLOADS[name](11)
    untraced = _runs(w, ids)
    with tracer.Tracer() as tr:
        traced = _runs(w, ids, tr)
    assert traced == untraced
    assert sum(tr.calls.values()) > 0
    # the originals are back after the traced block
    from nncpoly import homvec, conversion
    assert conversion.scalar_prod is homvec.scalar_prod
    assert conversion.adjacent.__module__ == "nncpoly.satlat"


def test_tracer_patches_every_binding():
    from nncpoly import conversion, homvec, polyhedron, satlat

    with tracer.Tracer():
        assert conversion.adjacent.__name__ == "wrapper"
        assert satlat.adjacent.__name__ == "wrapper"
        assert conversion.scalar_prod.__name__ == "wrapper"
        assert homvec.normalize.__name__ == "wrapper"
        assert polyhedron.NncPolyhedron.includes.__name__ == "wrapper"
        assert polyhedron.conversion_c2g.__name__ == "wrapper"
        assert satlat.SatMatrix.covers.__name__ == "covers"
    assert polyhedron.NncPolyhedron.includes.__name__ == "includes"


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench("c2g-mixed", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
