"""Input generator process for the ``diagnose`` workload.

Started by :class:`workloads.SimPool` as ``python3 genworker.py
<src-dir> <specs-json>``.  The specs are ``[anomaly_key, seed, normal_s]``
triples.  Each line ``n`` read from stdin asks for the next *n* specs,
which are simulated with :func:`repro.simulate_run` and written to stdout
as pickles of ``(dataset, spec, cause, simulate_seconds)``.  The worker
computes only when asked, so it sits idle while the benchmark measures.
It exits when stdin closes.
"""

import json
import pickle
import sys
import time


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from repro.eval.harness import simulate_run

    specs = iter(json.loads(sys.argv[2]))
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        for _ in range(int(line)):
            key, seed, normal_s = next(specs)
            t0 = time.perf_counter()
            dataset, spec, cause = simulate_run(
                key, seed=seed, normal_s=normal_s
            )
            elapsed = time.perf_counter() - t0
            pickle.dump((dataset, spec, cause, elapsed), out)
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
