"""Run every workload once and print one report.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Each workload runs with ``--trace 1``: its untraced repetitions give the
end-to-end metrics, printed by name and unit with ``error_rate`` beside
them, and one traced repetition gives the per-layer metrics, the self-time
shares along the blocking path and the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} exited with code {proc.returncode}")
    path = ROOT / ".bench_build" / "perfbench" / "results" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def table(title: str, rows: list[tuple[str, str, list]]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':40s} {'unit':6s}" + "".join(f"{w:>18s}" for w in bench.WORKLOADS))
    for name, unit, values in rows:
        print(f"  {name:40s} {unit:6s}" + "".join(f"{v:18.6g}" for v in values))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    ns = p.parse_args()
    results = [run(w, ns.seed, ns.seconds) for w in bench.WORKLOADS]

    print("manifest " + json.dumps(results[0]["manifest"], sort_keys=True))
    e2e = [(k, u, [r["end_to_end"][k] for r in results]) for k, u in bench.E2E_UNITS.items()]
    e2e.append(("error_rate", "ratio", [r["error_rate"] for r in results]))
    e2e.append(("checks attempted", "count", [r["checks"]["attempted"] for r in results]))
    table(f"end-to-end, tracing off (seed {ns.seed}, {ns.seconds:g} s per run)", e2e)
    table("per layer, one traced repetition of each job",
          [(k, u, [r["per_layer"][k] for r in results]) for k, u in bench.LAYER_UNITS.items()])
    for r in results:
        print(f"\n{r['workload']}")
        print("\n".join(bench.trace_report(r)))
        for failure in r["checks"]["failures"]:
            print(f"  FAILED {failure}")
    return 0 if all(r["checks"]["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
