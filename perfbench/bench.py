"""The focklift benchmark: workloads, generated inputs, checks and timing.

Each workload is a closed loop in one process with one client: the next
repetition of the workload's fixed job starts only after the previous one
has returned and its outputs have been checked.  Searches run with
``--jobs 1``.  The package is used only through its public entry points:
``focklift.cli.main`` for searches and ``focklift.permanent.permanent`` for
kernels.  Every input (search configs, Haar matrices) is generated here from
the workload seed; the program receives only those inputs.

README.md in this directory says why each workload exists and which layer
metric should move which end-to-end metric.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans

WORKLOADS = ("ancilla-cert", "two-mode-cert", "large-permanent")

E2E_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "permanent.calls": "count",
    "permanent.total_s": "s",
    "permanent.call_us.p50": "us",
    "permanent.call_us.p90": "us",
    "permanent.ops": "op",
    "permanent.gops_per_s": "Gop/s",
    "permanent.max_rel_error": "ratio",
    "fock.lift.calls": "count",
    "fock.lift.total_s": "s",
    "fock.lift.self_s": "s",
    "fock.lift.call_us.p50": "us",
    "fock.lift.call_us.p90": "us",
    "fock.lift.entries": "count",
    "fock.lifts_per_eval": "ratio",
    "fock.permanents_per_lift": "ratio",
    "fock.cache_entries": "count",
    "linalg.exp_i_hermitian.calls": "count",
    "linalg.exp_i_hermitian.total_s": "s",
    **{f"singlerail.{fn}.{k}": u for fn in spans.SINGLERAIL
       for k, u in (("calls", "count"), ("total_s", "s"))},
    "nogo.restarts": "count",
    "nogo.restart_s.p50": "s",
    "nogo.restart_s.p90": "s",
    "nogo.objective_evals": "count",
    "nogo.nfev_per_restart.p50": "count",
    "nogo.maxiter_ratio": "ratio",
    "nogo.objective_us.p50": "us",
    "nogo.objective_self_s": "s",
    "nogo.optimizer_self_s": "s",
    "nogo.feasible_ratio": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "setup.import_s": "s",
    "setup.first_call_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Search settings copied from src/focklift/configs/*.json when this
# benchmark was written.  The benchmark writes its own config files from
# these, so an edit to the packaged configs cannot change the load.
PINNED = {
    "two_mode": {"mode": "two_mode", "modes": 2, "restarts": 100, "max_iterations": 400,
                 "leakage_tolerance": 1e-10, "penalty_weight": 1e5,
                 "certification_threshold": 1e-6},
    "m3": {"mode": "ancilla", "modes": 3, "ancilla_photons": 0, "restarts": 25,
           "max_iterations": 400, "leakage_tolerance": 1e-10, "penalty_weight": 1e5,
           "certification_threshold": 1e-6},
    "m4_ancilla": {"mode": "ancilla", "modes": 4, "ancilla_photons": 1, "restarts": 25,
                   "max_iterations": 400, "leakage_tolerance": 1e-10, "penalty_weight": 1e5,
                   "certification_threshold": 1e-6},
}

# An unconstrained search must find at least this measure; a broken measure
# that returns 0 would otherwise "certify" the constrained runs.
CONTROL_MIN_MEASURE = 0.1
# criterion 9's tolerance, for the naive cross-check and the rank-one form
PERMANENT_TOL = 1e-10
NAIVE_MAX_N = 9
SETUP_PROBES = 5


@dataclass(frozen=True)
class Search:
    """One ``focklift nogo`` call of a job."""

    setup: str
    restarts: int
    unconstrained: bool = False
    max_iterations: int | None = None  # None keeps the pinned value

    @property
    def label(self) -> str:
        return f"{self.setup}{' unconstrained' if self.unconstrained else ''}"


# The fixed jobs.  At the seed commit (2 CPUs, no numba) one m4_ancilla
# restart takes about 9 s and varies by about 7 % with its start point, so
# three of them keep the job's seed-to-seed spread near 4 %.  The jobs stay
# well above a millisecond after a 150x faster lift or kernel.
SEARCH_JOBS = {
    "ancilla-cert": (Search("m4_ancilla", 3), Search("m3", 2),
                     Search("m3", 1, unconstrained=True)),
    "two-mode-cert": (Search("two_mode", 100), Search("two_mode", 5, unconstrained=True)),
}
PERMANENT_N = 20  # criterion 9's size
# --smoke: the same code paths on inputs small enough for a test
SMOKE_SEARCH_JOBS = {
    "ancilla-cert": (Search("m4_ancilla", 1, max_iterations=10),
                     Search("m3", 1, max_iterations=20),
                     Search("m3", 1, unconstrained=True)),
    "two-mode-cert": (Search("two_mode", 2), Search("two_mode", 1, unconstrained=True)),
}
SMOKE_PERMANENT_N = 10


class Checks:
    """Correctness checks of one run; a failed check is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary by QR of a complex Ginibre matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_submatrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Top-left n x n block of a 2n-dimensional Haar unitary."""
    return np.ascontiguousarray(haar_unitary(2 * n, rng)[:n, :n])


def rank_one(n: int, rng: np.random.Generator) -> tuple[np.ndarray, complex]:
    """u v^T and its permanent n! prod(u) prod(v).

    The phases of v are spread evenly round the circle, so no subset sum of
    v is large and Ryser's alternating sum cancels little; the kernel at
    seed then reaches ~1e-12, well inside the 1e-10 tolerance.
    """
    u = rng.uniform(0.9, 1.1, n) * np.exp(2j * math.pi * rng.uniform(size=n))
    phases = (np.arange(n) + rng.uniform()) / n
    v = (rng.uniform(0.9, 1.1, n) * np.exp(2j * math.pi * phases))[rng.permutation(n)]
    return np.outer(u, v), complex(math.factorial(n) * np.prod(u) * np.prod(v))


def naive_crosscheck(seed: int) -> list[tuple[int, float]]:
    """Relative deviation of the production permanent from the naive
    expansion, on one Haar submatrix per n = 1..9.

    Runs in a child process: the naive expansion at n = 9 allocates ~80 MB,
    which would otherwise land in the workload's peak memory.
    """
    from focklift.permanent import permanent

    rng = np.random.default_rng([seed, NAIVE_MAX_N])
    out = []
    for n in range(1, NAIVE_MAX_N + 1):
        a = haar_submatrix(n, rng)
        ref = permanent(a, algorithm="naive")
        out.append((n, abs(permanent(a) - ref) / abs(ref)))
    return out


class SearchJob:
    """Certificate searches through ``focklift.cli.main``."""

    max_rel_error = 0.0  # no permanent is checked directly

    def __init__(self, searches: tuple[Search, ...], seed: int, workdir: Path) -> None:
        self.calls = []
        seeds = np.random.SeedSequence(seed).generate_state(len(searches))
        for k, (search, cfg_seed) in enumerate(zip(searches, seeds)):
            cfg = dict(PINNED[search.setup], restarts=search.restarts, seed=int(cfg_seed))
            if search.unconstrained:
                cfg["penalty_weight"] = 0.0
            if search.max_iterations is not None:
                cfg["max_iterations"] = search.max_iterations
            cfg_path = workdir / f"search{k}.json"
            cfg_path.write_text(json.dumps(cfg, indent=2))
            self.calls.append((search, cfg, cfg_path, workdir / f"result{k}.json"))
        self.uses_permanent = any(s.setup != "two_mode" for s in searches)
        self.seeds = [int(s) for s in seeds]

    def run(self, checks: Checks, tracer: spans.Tracer | None = None) -> dict:
        from focklift import cli

        main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
        output_bytes, feasible, candidates = 0, 0, 0
        for search, cfg, cfg_path, out_path in self.calls:
            out_path.unlink(missing_ok=True)
            argv = ["nogo", "--config", str(cfg_path), "--out", str(out_path),
                    "--jobs", "1", "--no-timestamps"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            label = f"{search.label} (seed {cfg['seed']})"
            checks.check(f"{label}: exit code", code == 0, f"exit {code}")
            if not out_path.exists():
                checks.check(f"{label}: report written", False, "no report")
                continue
            text = out_path.read_text()
            output_bytes += len(text.encode()) + len(stdout.getvalue().encode())
            report = json.loads(text)
            result = report.get("result", {})
            trace = result.get("restart_trace", [])
            checks.check(f"{label}: restart trace length", len(trace) == search.restarts,
                         f"{len(trace)} entries for {search.restarts} restarts")
            if search.unconstrained:
                best = result.get("best_entangling_measure", 0.0)
                checks.check(f"{label}: control reaches measure {CONTROL_MIN_MEASURE}",
                              best >= CONTROL_MIN_MEASURE, f"best measure {best}")
            else:
                checks.check(f"{label}: certified", report.get("certified") is True,
                             f"certified = {report.get('certified')}")
                checks.check(f"{label}: feasible", result.get("feasible") is True,
                             f"feasible = {result.get('feasible')}")
            # every candidate's constraint value is reported under a key
            # ending in "leakage" (endpoint, snapped or projected)
            for entry in trace:
                for key, value in entry.items():
                    if key.endswith("leakage"):
                        candidates += 1
                        feasible += value <= cfg["leakage_tolerance"]
        return {"output_bytes": output_bytes, "feasible": (feasible, candidates)}


class PermanentJob:
    """Public ``permanent()`` calls at n = 20: one Haar submatrix, whose
    magnitude is bounded by ||A||_2^n, and one rank-one matrix, whose value
    is known in closed form."""

    uses_permanent = True

    def __init__(self, n: int, seed: int) -> None:
        rng = np.random.default_rng([seed, n])
        self.n = n
        self.haar = haar_submatrix(n, rng)
        self.bound = float(np.linalg.norm(self.haar, 2)) ** n
        self.rank_one, self.exact = rank_one(n, rng)
        self.max_rel_error = 0.0
        self.seeds = [seed]

    def run(self, checks: Checks, tracer: spans.Tracer | None = None) -> dict:
        from focklift.permanent import permanent

        if tracer is not None:
            permanent = tracer.span("permanent.permanent", permanent, tracer.after_permanent)
        p = permanent(self.haar)
        checks.check(f"Haar n={self.n}: 0 < |per| <= ||A||_2^n",
                      math.isfinite(abs(p)) and 0 < abs(p) <= self.bound * (1 + 1e-9),
                      f"|per| = {abs(p)!r}, bound {self.bound!r}")
        q = permanent(self.rank_one)
        err = abs(q - self.exact) / abs(self.exact)
        checks.check(f"rank-one n={self.n}: closed form", err <= PERMANENT_TOL,
                     f"relative error {err:.3e} (tol {PERMANENT_TOL:g})")
        self.max_rel_error = max(self.max_rel_error, err)
        return {"output_bytes": 0, "feasible": (0, 0)}


def make_job(workload: str, seed: int, smoke: bool, workdir: Path):
    if workload == "large-permanent":
        return PermanentJob(SMOKE_PERMANENT_N if smoke else PERMANENT_N, seed)
    jobs = SMOKE_SEARCH_JOBS if smoke else SEARCH_JOBS
    return SearchJob(jobs[workload], seed, workdir)


# Fresh interpreter: import the package, then one tiny call that compiles
# the numba kernels (when present) and fills the first basis caches.
_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
import focklift
t1 = time.perf_counter()
focklift.lift_unitary(np.eye(3, dtype=complex), 2)
focklift.permanent(np.ones((3, 3)))
print(t1 - t0, time.perf_counter() - t1)
"""


def setup_probes(root: Path, count: int) -> dict[str, list[float]]:
    """Wall time of fresh interpreters from spawn to exit, plus the import
    and first-call times each measures inside."""
    out: dict[str, list[float]] = {"setup_s": [], "import_s": [], "first_call_s": []}
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _PROBE, str(root / "src")], cwd=root,
                              capture_output=True, text=True, timeout=170)
        out["setup_s"].append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        import_s, first_s = (float(x) for x in proc.stdout.split())
        out["import_s"].append(import_s)
        out["first_call_s"].append(first_s)
    return out


def measure(job, checks: Checks, seconds: float) -> list[float]:
    """Repeat the job, each repetition timed from its first call to its
    checked result, while another repetition still fits in ``seconds``."""
    times: list[float] = []
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        job.run(checks)
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - began + statistics.median(times) > seconds:
            return times


def kernel_backend() -> str:
    flag = getattr(importlib.import_module("focklift.permanent"), "HAVE_NUMBA", None)
    return {True: "numba", False: "python"}.get(flag, "no HAVE_NUMBA flag")


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def manifest(root: Path, seed: int, job) -> dict:
    import scipy

    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernel_backend(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith(("_NUM_THREADS", "_MAX_THREADS", "_MAXIMUM_THREADS"))},
        "seeds": {"workload": seed, "inputs": job.seeds},
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """One benchmark run; returns the full result, metrics included."""
    import focklift
    from focklift.fock import basis_enumerate

    out_dir = root / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    setup = setup_probes(root, 1 if smoke else SETUP_PROBES)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        job = make_job(workload, seed, smoke, Path(tmp))
        max_rel_error = 0.0
        if job.uses_permanent:
            code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import bench; "
                    "print(json.dumps(bench.naive_crosscheck(int(sys.argv[3]))))")
            proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent),
                                   str(root / "src"), str(seed)], cwd=root,
                                  capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                raise RuntimeError(f"naive cross-check failed:\n{proc.stderr}")
            for n, dev in json.loads(proc.stdout):
                checks.check(f"permanent n={n}: production vs naive", dev <= PERMANENT_TOL,
                             f"relative deviation {dev:.3e} (tol {PERMANENT_TOL:g})")
                max_rel_error = max(max_rel_error, dev)
        # the same tiny warm call as the setup probe, so timing starts warm
        focklift.lift_unitary(np.eye(3, dtype=complex), 2)
        focklift.permanent(np.ones((3, 3)))

        times = measure(job, checks, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "smoke": smoke,
            "manifest": manifest(root, seed, job),
            "samples": {"solve_s": times, **setup},
            "end_to_end": {
                "solve_s": statistics.median(times),
                "setup_s": statistics.median(setup["setup_s"]),
                "peak_rss_mb": peak_rss_mb,
            },
        }
        if trace:
            tracer = spans.Tracer()
            with tracer.patched():
                t0 = time.perf_counter()
                info = tracer.span("perfbench.job", job.run)(checks, tracer)
                traced_s = time.perf_counter() - t0
            max_rel_error = max(max_rel_error, job.max_rel_error)
            cache = getattr(basis_enumerate, "cache_info", None)
            if cache is None:
                tracer.gaps.append("basis_enumerate has no cache_info; fock.cache_entries is a gap")
            layers = spans.layer_metrics(tracer, info["feasible"], info["output_bytes"],
                                         cache().currsize if cache else 0, max_rel_error)
            layers["setup.import_s"] = statistics.median(setup["import_s"])
            layers["setup.first_call_s"] = statistics.median(setup["first_call_s"])
            layers["trace.overhead_ratio"] = traced_s / result["end_to_end"]["solve_s"]
            if (kernel_backend() == "numba" and layers["fock.lift.calls"]
                    and not layers["fock.permanents_per_lift"]):
                tracer.gaps.append("with numba the lift calls the compiled Ryser directly: "
                                   "permanent.* on this workload is a gap, not zero")
            traces = out_dir / "traces"
            traces.mkdir(exist_ok=True)
            tracer.save(traces / f"{workload}-seed{seed}.npz")
            result.update({
                "per_layer": layers,
                "traced_solve_s": traced_s,
                "self_shares": spans.SpanTable(tracer).self_shares(),
                "gaps": tracer.gaps,
            })
    result["checks"] = {"attempted": checks.attempted, "failed": len(checks.failures),
                        "failures": checks.failures}
    result["error_rate"] = len(checks.failures) / checks.attempted
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2))
    return result


def result_line(result: dict) -> dict:
    """The JSON object printed as a run's last line: end-to-end metrics,
    or per-layer ones in a traced run."""
    values, units = ((result["per_layer"], LAYER_UNITS) if result["trace"]
                     else (result["end_to_end"], E2E_UNITS))
    return {
        "correct": result["checks"]["failed"] == 0,
        "attempted": result["checks"]["attempted"],
        "failed": result["checks"]["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def trace_report(result: dict) -> list[str]:
    """Tracing overhead, self-time shares and gaps of a traced run."""
    lines = [f"  traced solve {result['traced_solve_s']:.4f} s against untraced "
             f"{result['end_to_end']['solve_s']:.4f} s (overhead "
             f"{100 * (result['per_layer']['trace.overhead_ratio'] - 1):.1f} %)",
             "  time along the blocking path (serial, one client):",
             f"    {'span':34s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} self share"]
    for row in result["self_shares"]:
        lines.append(f"    {row['name']:34s} {row['calls']:9d} {row['total_s']:10.4f} "
                     f"{row['self_s']:10.4f} {100 * row['self_share']:6.2f} %")
    lines += [f"  GAP {gap}" for gap in result["gaps"]]
    return lines
