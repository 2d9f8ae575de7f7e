"""Run one workload of the focklift benchmark.

    python3 perfbench/run.py --workload ancilla-cert --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
there and from nowhere else.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run is traced and they are
the per-layer ones.  The full result, manifest included, is written to
``.bench_build/perfbench/results/``.  Exit codes: 0 ran (check ``correct``),
2 no package to benchmark or bad arguments.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Single-threaded BLAS in the workload process and in every child it starts;
# set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    import bench

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one setup probe: for the benchmark's own tests")
    ns = p.parse_args(argv)
    if ns.seconds <= 0:
        p.error("--seconds must be positive")
    return ns


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "focklift" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package at {src / 'focklift'}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(src))
    ns = _parse(argv)
    import focklift

    if Path(focklift.__file__).resolve().parent != (src / "focklift").resolve():
        sys.stderr.write(f"perfbench: imported focklift from {focklift.__file__}, not {src}\n")
        return 2
    import bench

    result = bench.run_workload(ROOT, ns.workload, ns.seed, ns.seconds, bool(ns.trace),
                                smoke=ns.smoke)
    line = bench.result_line(result)
    print(f"perfbench {ns.workload} seed={ns.seed} trace={ns.trace}")
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    for name, metric in line["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':40s} {result['error_rate']:.6g} ratio "
          f"({line['failed']} failed of {line['attempted']} checks)")
    for failure in result["checks"]["failures"]:
        print(f"  FAILED {failure}")
    if ns.trace:
        print("\n".join(bench.trace_report(result)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
