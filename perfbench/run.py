"""nncpoly benchmark runner.

    python3 perfbench/run.py --workload c2g-mixed --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each operation is sent only after the
previous one returned.  The run repeats whole passes over the workload's
cases until ``--seconds`` of operation time have been spent, checks every
output, and prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json.
* ``--trace 1``: the per-layer metrics.  The run makes untraced passes,
  then the same passes with the tracer installed, checks that outputs and
  exact counters agree, and reports per-pass layer numbers plus the ratio
  of traced to untraced operation time.

The line before it carries the run's context (seed, Python version, nproc,
``src/`` line count, passes, sample count).  The program under test is the
``src/nncpoly`` next to this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 7  # at least this many setup_s samples per run
HARD_LIMIT_S = 100.0  # operation time after which a run stops, even mid-pass
CAL_REF_S = 0.003  # calibration slice time at the reference machine speed
STARTUP_REF_S = 0.08  # bare interpreter start at the reference machine speed
ORACLE_BUDGET_S = 40.0  # eps-oracle fallback time per run


def require_src() -> None:
    """Put the checkout's own sources first on the path and refuse to run
    against anything else."""
    if not (SRC / "nncpoly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nncpoly sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import nncpoly

    if Path(nncpoly.__file__).resolve().parent != SRC / "nncpoly":
        raise SystemExit(f"perfbench: nncpoly imported from {nncpoly.__file__}, not {SRC}")


def result(key: str, values: dict[str, float], correct: bool, attempted: int,
           failed: int) -> dict:
    """The result object, with the metrics named and ordered as the key
    ("end_to_end" or "per_layer") of BENCHMARK.json lists them."""
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "nncpoly").rglob("*.py"))


class OpTimeout(Exception):
    pass


class OpFailed(Exception):
    """An operation erred or ran over its budget; the rest of its case is
    abandoned."""


def _alarm(_signum, _frame):
    raise OpTimeout


_CAL_ROWS = [(i % 7 + 1, i % 5 - 2, 3 - i % 4, i % 3 - 1, 2) for i in range(60)]


def calibration_slice() -> float:
    """Seconds taken by a fixed piece of pure Python, about 3 ms: the
    machine's current speed, measured by code the program under test cannot
    change.  It mixes what the engine spends its time on (scalar products
    of small int tuples, gcds, int bit masks, small frozensets), because a
    plain arithmetic loop follows the machine's swings on those less well."""
    t0 = time.perf_counter()
    rows, bits, acc = _CAL_ROWS, {}, 0
    for k in range(12):
        for i, r in enumerate(rows):
            s = sum(a * b for a, b in zip(r, rows[(i + k) % 60]))
            g = 0
            for x in r:
                g = gcd(g, x)
            bits[i] = bits.get(i, 0) | (1 << ((s + k) % 40))
            acc += (bits[i] & bits.get(i - 1, -1)).bit_count() + g
        sets = [frozenset(range(i, i + 6)) for i in range(0, 40, 3)]
        acc += sum(len(a & b) for a in sets for b in sets)
    return time.perf_counter() - t0


class Runner:
    """Times operations one at a time under a wall budget and keeps what
    each pass produced.

    The shared machine's speed swings by a third within seconds and drifts
    by as much over minutes, for every process on it.  Two measures keep the
    metrics about the program:

    * calibration: a calibration slice runs before every case, and each
      operation's time is scaled by CAL_REF_S over the median of the slices
      taken before its case and before the cases next to it in the pass,
      i.e. reported at the machine speed where the slice takes CAL_REF_S;
    * median of passes: every pass runs the same operations, so each is
      known by (case, position in the case), and ``op_times`` gives the
      median of its scaled times over the passes.

    On a shared 2-vCPU Intel Xeon VM, a plain arithmetic loop as the slice,
    one scale per pass and the fastest time of each operation spread
    0.11-0.29 over five seeds on three workloads; the scheme above spread
    0.04-0.12 on the same runs.
    """

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.total = 0.0  # unscaled operation time over all passes
        self.times: dict[tuple[int, int], list[float]] = {}
        self.failed = 0
        self.nops = 0
        self._at = (0, 0)  # (case, position) of the next operation
        self._pass: list[tuple[int, int, float]] = []

    def op(self, fn, *args):
        if self.tracer is not None:
            self.tracer.begin(self.nops)
        self.nops += 1
        # the budget shrinks near the run's hard limit, so one slow case
        # cannot hold the run past it
        budget = max(0.001, min(self.w.budget_s, HARD_LIMIT_S - self.total))
        signal.setitimer(signal.ITIMER_REAL, budget)
        start = time.perf_counter()
        try:
            out = fn(*args)
        except OpTimeout:
            self._record(budget, failed=True)
            raise OpFailed(f"over the {budget:.3f} s budget") from None
        except Exception as exc:  # any library error fails the op, the run goes on
            self._record(time.perf_counter() - start, failed=True)
            raise OpFailed(repr(exc)) from exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.end()
        self._record(time.perf_counter() - start)
        return out

    def _record(self, latency: float, failed: bool = False) -> None:
        cid, k = self._at
        self._at = (cid, k + 1)
        self._pass.append((cid, k, latency))
        self.total += latency
        self.failed += failed

    def op_times(self) -> dict[tuple[int, int], float]:
        return {key: statistics.median(ts) for key, ts in self.times.items()}

    def case_times(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for (cid, _), t in self.op_times().items():
            out[cid] = out.get(cid, 0.0) + t
        return out

    def run_pass(self) -> dict:
        """One pass over every case in seed order: {case: CaseRun, or None
        when an operation failed}."""
        runs, slices = {}, {}
        for cid in self.w.case_ids():
            slices[cid] = calibration_slice()
            self._at = (cid, 0)
            try:
                runs[cid] = self.w.run_case(cid, self.op)
                runs[cid].nops = self._at[1]
            except OpFailed as exc:
                print(f"perfbench: {self.w.name} case {cid}: {exc}", file=sys.stderr)
                runs[cid] = None
            if self.total > HARD_LIMIT_S:
                break
        order = list(slices)
        scale = {
            cid: CAL_REF_S / statistics.median(slices[c] for c in order[max(0, i - 1):i + 2])
            for i, cid in enumerate(order)
        }
        for cid, k, latency in self._pass:
            self.times.setdefault((cid, k), []).append(latency * scale[cid])
        self._pass.clear()
        return runs


def run_passes(runner: Runner, seconds: float, between=None) -> list[dict]:
    """Whole passes until the operation time reaches seconds; between() runs
    after each pass, outside the operation time."""
    passes = []
    while runner.total < seconds and runner.total < HARD_LIMIT_S:
        passes.append(runner.run_pass())
        if between is not None:
            between()
    return passes


class Checker:
    """Compares each case's output digest with the recorded verdicts and
    falls back to the eps oracle, once per distinct digest, for a digest
    with no record.  The oracle is slow (seconds per lattice program), so
    it gets ORACLE_BUDGET_S per run; a case it cannot reach counts as
    wrong, and record.py should be rerun after a change to the outputs."""

    def __init__(self, workload):
        self.w = workload
        record = json.loads(DIGESTS.read_text()).get(workload.name, {})
        self.verdicts: dict[tuple[int, str], bool] = {
            (int(cid), digest): verdict == "ok"
            for verdict, digests in record.items()
            for cid, digest in digests.items()
        }
        self.oracle_s = 0.0

    def ok(self, cid: int, run) -> bool:
        key = (cid, run.digest())
        if key in self.verdicts:
            return self.verdicts[key]
        if self.oracle_s > ORACLE_BUDGET_S:
            print(f"perfbench: {self.w.name} case {cid}: unrecorded digest and the oracle "
                  "budget is spent; rerun perfbench/record.py", file=sys.stderr)
            return False
        print(f"perfbench: {self.w.name} case {cid}: no recorded digest matches, "
              "checking against the eps oracle", file=sys.stderr)
        t0 = time.perf_counter()
        try:
            self.verdicts[key] = self.w.oracle_ok(cid, run)
        except Exception as exc:  # an oracle crash is a failed check, not a crash
            print(f"perfbench: oracle error {exc!r}", file=sys.stderr)
            self.verdicts[key] = False
        self.oracle_s += time.perf_counter() - t0
        return self.verdicts[key]


def check_passes(workload, checker: Checker, passes) -> int:
    """Number of operations whose output is wrong: every operation of a
    case whose outputs fail the check."""
    wrong = 0
    for runs in passes:
        for cid, run in runs.items():
            if run is not None and not checker.ok(cid, run):
                wrong += run.nops
    return wrong


def exact_per_pass(passes) -> dict[str, float]:
    from workloads import EXACT

    first = passes[0]
    out = {k: sum(r.counters[k] for r in first.values() if r) for k in EXACT}
    for k in ("peak_size", "eps_peak_size"):
        out[k] = max((r.counters[k] for r in first.values() if r), default=0)
    return out


def child_wall(cmd: list[str]) -> float:
    """Wall time of a child process run to its end; the run fails if the
    child fails or takes over 60 s."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # A wait with a timeout polls with sleeps of up to 50 ms, which rounds
    # the time to their steps; so wait blocking, with an alarm as the limit.
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        proc.wait()
    except OpTimeout:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {cmd} ran over 60 s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"perfbench: {cmd} exited with {proc.returncode}")
    return elapsed


def setup_sample(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports the library and builds
    this run's inputs, then exits, scaled by STARTUP_REF_S over the wall
    time of a bare interpreter start (``python -c pass``) just before it.

    Start-up is mostly process creation and imports, whose speed drifts on
    a shared machine apart from that of the calibration slice.  Over eight
    minutes on a shared 2-vCPU Intel Xeon VM, medians of ten samples spread
    0.15-0.19 unscaled, 0.14 scaled by calibration slices and 0.05-0.07
    scaled by the bare start."""
    bare = child_wall([sys.executable, "-c", "pass"])
    sample = child_wall([sys.executable, str(Path(__file__).resolve()), "--workload",
                         workload, "--seed", str(seed), "--setup-only"])
    return sample * STARTUP_REF_S / bare


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile, so that the value does not jump
    between neighbouring operations of different cost."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (setup_s samples)")
    args = ap.parse_args(argv)

    require_src()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    checker = Checker(workload)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    info = {
        "workload": args.workload, "seed": args.seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "src_lines": src_lines(), "trace": args.trace,
        "cases_left_out": sorted(set(range(workload.count)) - set(workload.case_ids())),
    }
    if args.trace:
        result = traced_run(workload, checker, args.seconds, info)
    else:
        result = untraced_run(workload, checker, args.seconds, info)
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


def untraced_run(workload, checker, seconds, info) -> dict:
    runner = Runner(workload)
    # Setup samples are spread over the run, one after each pass, so that
    # their median sees the machine at more than one moment.
    setup = []
    passes = run_passes(runner, seconds,
                        lambda: setup.append(setup_sample(workload.name, workload.seed)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong = check_passes(workload, checker, passes)
    failed = runner.failed + wrong + workload.rule_failures(passes, runner.case_times())
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload.name, workload.seed))
    times = list(runner.op_times().values())
    info.update(passes=len(passes), ops=runner.nops, samples=len(times), setup_samples=len(setup))
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": quantile(times, 0.5) * 1e3,
        "op_p90_ms": quantile(times, 0.9) * 1e3,
        "ok_rate": 1 - failed / runner.nops,
        "peak_size": exact_per_pass(passes)["peak_size"],
        "peak_rss_mb": rss_mb,
    }
    return result("end_to_end", values, wrong == 0, runner.nops, failed)


def traced_run(workload, checker, seconds, info) -> dict:
    """Alternate untraced and traced passes over the same inputs, so that
    drift in machine speed hits both sides of the overhead ratio alike."""
    from tracer import Tracer, layer_metrics

    plain, tr = Runner(workload), Tracer()
    traced = Runner(workload, tr)
    passes, traced_passes = [], []
    while plain.total < seconds / 2 and plain.total < HARD_LIMIT_S / 2:
        passes.append(plain.run_pass())
        with tr:
            traced_passes.append(traced.run_pass())
    same = all(
        {c: (r.tokens, r.counters) if r else None for c, r in a.items()}
        == {c: (r.tokens, r.counters) if r else None for c, r in b.items()}
        for a, b in zip(passes, traced_passes)
    )
    if not same:
        print("perfbench: traced outputs or counters differ from the untraced run",
              file=sys.stderr)
    wrong = check_passes(workload, checker, passes) + check_passes(workload, checker, traced_passes)
    overhead = sum(traced.op_times().values()) / sum(plain.op_times().values())
    values = layer_metrics(tr, exact_per_pass(passes), len(traced_passes), overhead)
    info.update(passes=len(passes), ops=traced.nops,
                self_share={k: round(v / traced.total, 4)
                            for k, v in sorted(tr.self_s.items(), key=lambda kv: -kv[1])})
    return result("per_layer", values, same and wrong == 0, plain.nops + traced.nops,
                  plain.failed + traced.failed + wrong)


if __name__ == "__main__":
    sys.exit(main())
