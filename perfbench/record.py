"""Record the output digest of every base case, after validating each case
once against the extra-coordinate (eps) oracle.

    python3 perfbench/record.py [workload ...]

Writes perfbench/digests.json (merging with the workloads not named).  The
digest is taken in base coordinates, so one record serves every --seed.
A case whose output the oracle rejects is recorded under "wrong": runs then
count its operations as failed without consulting the oracle again.  Slow
on purpose: the eps route is the expensive reference.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main(names: list[str]) -> int:
    run.require_src()
    import workloads

    record = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    plain = lambda fn, *args: fn(*args)  # noqa: E731
    for name in names or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name](seed=0)
        verdicts = {"ok": {}, "wrong": {}}
        for cid in range(w.count):
            t0 = time.perf_counter()
            case = w.run_case(cid, plain)
            verdict = "ok" if w.oracle_ok(cid, case) else "wrong"
            verdicts[verdict][str(cid)] = case.digest()
            print(f"{name} case {cid}: {verdict} ({time.perf_counter() - t0:.2f} s)", flush=True)
        record[name] = verdicts
        run.DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
