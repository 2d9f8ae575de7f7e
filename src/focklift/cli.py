"""Batch front end: sweeps, no-go searches, invariant suites, benchmarks,
lifted-matrix dumps, and mesh netlists.

Every command emits a versioned report ("schema": 1) carrying a manifest
with the command, the effective config, the seed, the package version, and
the output paths.  Timestamps and wall times are dropped under
--no-timestamps so that identical command + config + seed runs are
byte-identical.  Files are written to a temp name and atomically renamed;
a failed run never leaves a partial file.

Exit codes: 0 ok, 2 usage or config error, 3 certification failure,
4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import tempfile
import time
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CERTIFICATION = 3
EXIT_IO = 4


class _UsageError(Exception):
    """Raised for config/argument problems mapped to exit code 2."""


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".focklift-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> list[str]:
    """Write text to the output path (atomic) or stdout; returns paths written."""
    if out is None:
        sys.stdout.write(text)
        return []
    _atomic_write(out, text)
    return [os.path.abspath(out)]


def _manifest(command: str, config: dict, seed: int | None,
              outputs: list[str], no_timestamps: bool,
              started: str, finished: str) -> dict:
    m = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": outputs,
    }
    if not no_timestamps:
        m["started"] = started
        m["finished"] = finished
    return m


def _resolve_seed(ns) -> int:
    # generated seeds still land in the manifest so a run can be replayed
    if ns.seed is not None:
        return int(ns.seed)
    return secrets.randbits(32)


def _parse_grid(spec: str) -> list[float]:
    spec = spec.strip()
    if not spec:
        raise _UsageError("empty epsilon grid")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise _UsageError(f"grid range must be start:stop:count, got {spec!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise _UsageError(f"bad grid range {spec!r}: {exc}") from exc
        if count < 1:
            raise _UsageError(f"grid count must be >= 1, got {count}")
        return [float(x) for x in np.linspace(start, stop, count)]
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad grid value in {spec!r}: {exc}") from exc
    if not values:
        raise _UsageError("empty epsilon grid")
    return values


def _load_matrix(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read matrix file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"matrix file {path!r} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("matrix")
    if not isinstance(data, list) or not data:
        raise _UsageError(f"matrix file {path!r} holds no matrix")

    def entry(e):
        if isinstance(e, (int, float)):
            return complex(e)
        if isinstance(e, list) and len(e) == 2:
            return complex(e[0], e[1])
        raise _UsageError(f"matrix entries must be numbers or [re, im] pairs, got {e!r}")

    try:
        return np.array([[entry(e) for e in row] for row in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"matrix file {path!r} is ragged or malformed: {exc}") from exc


def _source_unitary(ns, seed: int) -> tuple[np.ndarray, dict]:
    from .linalg import haar_random_unitary, require_unitary

    if (ns.haar is None) == (ns.input is None):
        raise _UsageError("give exactly one of --haar M or --input PATH")
    if ns.haar is not None:
        if ns.haar < 1:
            raise _UsageError(f"--haar needs a positive dimension, got {ns.haar}")
        v = haar_random_unitary(ns.haar, seed)
        src = {"haar_dim": ns.haar}
    else:
        v = _load_matrix(ns.input)
        src = {"input": os.path.abspath(ns.input)}
    from .errors import InvalidInputError

    try:
        require_unitary(v, name="input matrix")
    except InvalidInputError as exc:
        raise _UsageError(str(exc)) from exc
    return v, src


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_task(args: tuple) -> tuple[float, float, float]:
    from .modes import CompositeGateParams
    from .singlerail import (
        composite_gate_fock,
        entangling_measure,
        leakage,
        nearest_unitary_block,
    )

    eps, samples, seed, index, npoints = args
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(npoints)[index])
    leak = leakage(
        composite_gate_fock(CompositeGateParams(0.0, 0.0, 0.0, 0.0, eps))
    ).frobenius_leakage
    best = 0.0
    for _ in range(samples):
        a, b, g, d = rng.uniform(-math.pi, math.pi, size=4)
        gate = composite_gate_fock(CompositeGateParams(a, b, g, d, eps))
        best = max(best, entangling_measure(nearest_unitary_block(gate)))
    return eps, leak, best


def cmd_sweep(ns) -> int:
    from .nogo import _run_restarts

    started = _now()
    grid = _parse_grid(ns.grid)
    if ns.samples < 1:
        raise _UsageError(f"--samples must be >= 1, got {ns.samples}")
    if ns.out is None:
        raise _UsageError("sweep requires --out for the CSV table")
    seed = _resolve_seed(ns)
    tasks = [(eps, ns.samples, seed, i, len(grid)) for i, eps in enumerate(grid)]
    rows = _run_restarts(_sweep_task, tasks, ns.jobs)

    csv_lines = ["epsilon,leakage,entangling_measure"]
    csv_lines += [f"{e!r},{l!r},{m!r}" for e, l, m in rows]
    csv_text = "\n".join(csv_lines) + "\n"

    zero_rows = [r for r in rows if r[1] < 1e-12]
    max_measure_zero = max((r[2] for r in zero_rows), default=0.0)
    summary_path = os.path.splitext(ns.out)[0] + ".summary.json"
    outputs = [os.path.abspath(ns.out), os.path.abspath(summary_path)]
    config = {"grid": ns.grid, "points": len(grid), "samples": ns.samples}
    payload = {
        "schema": 1,
        "manifest": _manifest("sweep", config, seed, outputs,
                              ns.no_timestamps, started, _now()),
        "rows": len(rows),
        "zero_leakage_rows": len(zero_rows),
        "max_measure_on_zero_leakage": max_measure_zero,
        "anti_correlation": bool(max_measure_zero < 1e-10),
        "max_leakage": max((r[1] for r in rows), default=0.0),
        "max_measure": max((r[2] for r in rows), default=0.0),
    }
    _atomic_write(ns.out, csv_text)
    _atomic_write(summary_path, _dump_json(payload))
    sys.stdout.write(
        f"sweep: {len(rows)} points, {len(zero_rows)} decoupled, "
        f"max measure on decoupled rows {max_measure_zero:.3e}\n"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# nogo
# ---------------------------------------------------------------------------

def _load_search_config(ns) -> tuple[dict, str]:
    name = ns.config
    if os.path.exists(name):
        try:
            with open(name) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config {name!r} is not valid JSON: {exc}") from exc
        return raw, os.path.abspath(name)
    ref = resources.files("focklift").joinpath("configs", name + ".json")
    if ref.is_file():
        return json.loads(ref.read_text()), f"packaged:{name}"
    raise _UsageError(
        f"config {name!r} is neither a file nor a packaged config "
        f"(packaged: two_mode, m3, m4_ancilla)"
    )


def cmd_nogo(ns) -> int:
    from .errors import InvalidInputError
    from .nogo import SearchConfig, nogo_search_ancilla, nogo_search_two_mode

    started = _now()
    raw, origin = _load_search_config(ns)
    if not isinstance(raw, dict):
        raise _UsageError(f"config {origin} must be a JSON object")
    mode = raw.get("mode", "two_mode" if raw.get("modes", 2) == 2 else "ancilla")
    if mode not in ("two_mode", "ancilla"):
        raise _UsageError(f"unknown search mode {mode!r} (two_mode or ancilla)")
    if ns.seed is not None:
        raw = dict(raw, seed=int(ns.seed))
    try:
        cfg = SearchConfig.from_jsonable(raw)
        if mode == "two_mode":
            result = nogo_search_two_mode(cfg, jobs=ns.jobs)
        else:
            result = nogo_search_ancilla(cfg, jobs=ns.jobs)
    except InvalidInputError as exc:
        raise _UsageError(str(exc)) from exc

    if result.constrained:
        certified = bool(result.feasible
                         and result.best_entangling_measure < cfg.certification_threshold)
    else:
        certified = None
    outputs = [os.path.abspath(ns.out)] if ns.out else []
    payload = {
        "schema": 1,
        "manifest": _manifest("nogo", dict(raw, mode=mode), cfg.seed, outputs,
                              ns.no_timestamps, started, _now()),
        "mode": mode,
        "certification_threshold": cfg.certification_threshold,
        "certified": certified,
        "result": result.to_jsonable(include_timing=not ns.no_timestamps),
    }
    _emit(_dump_json(payload), ns.out)
    if ns.out:
        label = {True: "certified", False: "VIOLATION", None: "unconstrained"}[certified]
        sys.stdout.write(
            f"nogo [{mode}] {label}: best measure "
            f"{result.best_entangling_measure:.6e}, leakage {result.best_leakage:.3e}\n"
        )
    if certified is False:
        return EXIT_CERTIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(name: str, residual: float, tol: float) -> dict:
    residual = float(residual)
    return {"name": name, "residual": residual, "tolerance": tol,
            "passed": bool(residual <= tol)}


def _suite_algebra() -> list[dict]:
    from .linalg import exp_i_hermitian, frobenius, haar_random_unitary
    from .modes import (
        beam_splitter,
        composite_gate_mode_matrix,
        CompositeGateParams,
        generator_xyz,
        reck_decompose,
        recompose,
    )

    checks = []
    x, y, z = generator_xyz()

    def comm(a, b):
        return a @ b - b @ a

    res = max(
        frobenius(comm(x, y) - 1j * z),
        frobenius(comm(y, z) - 1j * x),
        frobenius(comm(z, x) - 1j * y),
    )
    checks.append(_check("su2-closure", res, 1e-14))

    rng = np.random.default_rng(_VERIFY_SEED)
    res = 0.0
    for _ in range(20):
        a, b, g, d, e = rng.uniform(-math.pi, math.pi, size=5)
        route = (np.diag([np.exp(1j * a), np.exp(1j * b)])
                 @ beam_splitter(e)
                 @ np.diag([np.exp(1j * g), np.exp(1j * d)]))
        res = max(res, frobenius(
            composite_gate_mode_matrix(CompositeGateParams(a, b, g, d, e)) - route))
    checks.append(_check("mode-matrix-route", res, 1e-14))

    res = 0.0
    for dim in range(2, 7):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2
        v = exp_i_hermitian(h)
        res = max(res, frobenius(v.conj().T @ v - np.eye(dim)))
    checks.append(_check("exp-unitary", res, 1e-12))

    res = 0.0
    for dim in range(2, 9):
        v = haar_random_unitary(dim, rng)
        res = max(res, frobenius(v.conj().T @ v - np.eye(dim)))
    checks.append(_check("haar-unitary", res, 1e-12))

    res = excess = 0.0
    for dim in range(2, 7):
        v = haar_random_unitary(dim, rng)
        elements = reck_decompose(v)
        res = max(res, float(np.max(np.abs(recompose(elements, dim) - v))))
        excess = max(excess, float(len(elements) - dim * (dim + 1) // 2))
    checks.append(_check("reck-roundtrip", res, 1e-10))
    checks.append(_check("reck-element-count", max(0.0, excess), 0.0))
    return checks


def _suite_fock() -> list[dict]:
    from .fock import (
        basis_enumerate,
        basis_monomial,
        lift_unitary,
        lift_via_substitution,
        poly_to_vector,
        sector_product_check,
    )
    from .linalg import haar_random_unitary
    from .modes import beam_splitter

    checks = []
    lifted = lift_unitary(beam_splitter(math.pi / 4), 2)
    i11 = lifted.basis.index((1, 1))
    checks.append(_check("hom-dip", abs(lifted.matrix[i11, i11]), 1e-14))

    rng = np.random.default_rng(_VERIFY_SEED + 1)
    res = 0.0
    for photons in (2, 3):
        v1 = haar_random_unitary(3, rng)
        v2 = haar_random_unitary(3, rng)
        lhs = lift_unitary(v1 @ v2, photons).matrix
        rhs = lift_unitary(v1, photons).matrix @ lift_unitary(v2, photons).matrix
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    checks.append(_check("homomorphism", res, 1e-10))

    v = haar_random_unitary(4, rng)
    m = lift_unitary(v, 3).matrix
    res = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
    checks.append(_check("lift-unitary", res, 1e-9))

    res = 0.0
    for _ in range(5):
        v = haar_random_unitary(3, rng)
        lifted = lift_unitary(v, 2)
        basis = lifted.basis
        cols = [poly_to_vector(lift_via_substitution(v, basis_monomial(n)), basis)
                for n in basis.states]
        res = max(res, float(np.max(np.abs(lifted.matrix - np.stack(cols, axis=1)))))
    checks.append(_check("substitution-route", res, 1e-12))

    res = 0.0
    for _ in range(5):
        vc = haar_random_unitary(2, rng)
        va = haar_random_unitary(2, rng)
        res = max(res, sector_product_check(vc, va, 2))
    checks.append(_check("sector-product", res, 1e-12))

    dim = len(basis_enumerate(4, 3))
    res = float(np.max(np.abs(lift_unitary(np.eye(4, dtype=complex), 3).matrix - np.eye(dim))))
    checks.append(_check("identity-lift", res, 1e-15))
    return checks


def _suite_singlerail() -> list[dict]:
    from .modes import composite_gate_mode_matrix, CompositeGateParams
    from .singlerail import (
        assemble_from_mode_matrix,
        composite_gate_fock,
        decoupled_form_even,
        decoupled_form_odd,
        entangling_measure,
        extract_computational,
        leakage,
    )

    checks = []
    rng = np.random.default_rng(_VERIFY_SEED + 2)

    res = 0.0
    for _ in range(100):
        p = CompositeGateParams(*rng.uniform(-math.pi, math.pi, size=5))
        closed = composite_gate_fock(p)
        lifted = assemble_from_mode_matrix(composite_gate_mode_matrix(p))
        res = max(res, float(np.max(np.abs(closed - lifted))))
    checks.append(_check("closed-vs-lifted", res, 1e-12))

    res = 0.0
    for eps in np.linspace(-2 * math.pi, 2 * math.pi, 1001):
        leak = leakage(composite_gate_fock(CompositeGateParams(0, 0, 0, 0, eps)))
        res = max(res, abs(leak.frobenius_leakage - math.sqrt(2) * abs(math.sin(2 * eps))))
    checks.append(_check("leakage-law", res, 1e-12))

    res_even = res_odd = 0.0
    for _ in range(20):
        a, b, g, d = rng.uniform(-math.pi, math.pi, size=4)
        for n in (0, 1, 2):
            pe = CompositeGateParams(a, b, g, d, n * math.pi)
            res_even = max(res_even, float(np.max(np.abs(
                decoupled_form_even(n, a, b, g, d) - composite_gate_fock(pe)))))
            po = CompositeGateParams(a, b, g, d, (2 * n + 1) * math.pi / 2)
            res_odd = max(res_odd, float(np.max(np.abs(
                decoupled_form_odd(n, a, b, g, d) - composite_gate_fock(po)))))
    checks.append(_check("even-form", res_even, 1e-12))
    checks.append(_check("odd-form", res_odd, 1e-12))

    cnot = np.eye(4, dtype=complex)
    cnot[2:, 2:] = [[0, 1], [1, 0]]
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    res = max(
        abs(entangling_measure(cnot) - 0.5),
        entangling_measure(np.eye(4, dtype=complex)),
        entangling_measure(swap),
    )
    checks.append(_check("measure-pins", res, 1e-12))

    res = 0.0
    for _ in range(50):
        a, b, g, d = rng.uniform(-math.pi, math.pi, size=4)
        n = int(rng.integers(0, 3))
        res = max(res, entangling_measure(extract_computational(
            decoupled_form_even(n, a, b, g, d))))
        res = max(res, entangling_measure(extract_computational(
            decoupled_form_odd(n, a, b, g, d))))
    checks.append(_check("decoupled-not-entangling", res, 1e-10))
    return checks


def _suite_nogo() -> list[dict]:
    from .linalg import haar_random_unitary
    from .nogo import (
        _ancilla_eval,
        _AncillaFrame,
        _project_feasible,
        block_lemma_check,
        bunched_partition,
        dont_cause_errors_residuals,
        nogo_search_two_mode,
        SearchConfig,
    )

    checks = []
    rng = np.random.default_rng(_VERIFY_SEED + 3)

    res = 0.0
    for m in (3, 4):
        for _ in range(20):
            res = max(res, dont_cause_errors_residuals(
                haar_random_unitary(m, rng)).max_route_deviation)
    checks.append(_check("residual-closed-form", res, 1e-10))

    res = 0.0
    for m in (3, 4, 6):
        for _ in range(30):
            v = haar_random_unitary(m, rng)
            for split in range(1, m):
                res = max(res, block_lemma_check(v, split))
    checks.append(_check("lemma-gap", res, 1e-10))

    vb = np.zeros((5, 5), dtype=complex)
    vb[:2, :2] = haar_random_unitary(2, rng)
    vb[2:, 2:] = haar_random_unitary(3, rng)
    res = float(np.linalg.norm(vb[:2, 2:]))
    checks.append(_check("zero-block-propagation", res, 0.0))

    expected = {(2, 0): 1, (2, 1): 2, (2, 2): 1, (3, 2): 4}
    res = 0.0
    for (m, n), comp_count in expected.items():
        comp, _ = bunched_partition(m, n)
        res = max(res, float(abs(len(comp) - comp_count)))
    checks.append(_check("partition-counts", res, 0.0))

    res = 0.0
    for m, k in ((3, 0), (4, 1)):
        frame = _AncillaFrame(m, k)
        for _ in range(5):
            vp = _project_feasible(haar_random_unitary(m, rng))
            _, constraint, _ = _ancilla_eval(vp, frame)
            res = max(res, constraint)
    checks.append(_check("projection-feasible", res, 1e-10))

    cfg = SearchConfig(modes=2, restarts=6, max_iterations=200,
                       penalty_weight=1e5, seed=101)
    constrained = nogo_search_two_mode(cfg)
    checks.append(_check("mini-certificate", constrained.best_entangling_measure, 1e-6))

    cfg = SearchConfig(modes=2, restarts=8, max_iterations=300,
                       penalty_weight=0, seed=102)
    unconstrained = nogo_search_two_mode(cfg)
    checks.append(_check("entangling-power",
                         max(0.0, 0.1 - unconstrained.best_entangling_measure), 0.0))
    return checks


_VERIFY_SEED = 77
_SUITES = {
    "algebra": _suite_algebra,
    "fock": _suite_fock,
    "singlerail": _suite_singlerail,
    "nogo": _suite_nogo,
}


def cmd_verify(ns) -> int:
    started = _now()
    names = list(_SUITES) if ns.suite == "all" else [ns.suite]
    checks = []
    for name in names:
        for c in _SUITES[name]():
            c["suite"] = name
            checks.append(c)
            tag = "PASS" if c["passed"] else "FAIL"
            sys.stdout.write(
                f"[{tag}] {name}.{c['name']}  residual={c['residual']:.3e}  "
                f"tol={c['tolerance']:.0e}\n"
            )
    passed = all(c["passed"] for c in checks)
    outputs = [os.path.abspath(ns.out)] if ns.out else []
    payload = {
        "schema": 1,
        "manifest": _manifest("verify", {"suite": ns.suite}, None, outputs,
                              ns.no_timestamps, started, _now()),
        "checks": checks,
        "passed": passed,
    }
    if ns.out:
        _atomic_write(ns.out, _dump_json(payload))
    sys.stdout.write(f"verify {ns.suite}: {'all passed' if passed else 'FAILURES'} "
                     f"({len(checks)} checks)\n")
    return EXIT_OK if passed else EXIT_CERTIFICATION


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(ns) -> int:
    from .permanent import NAIVE_MAX_N, permanent, RYSER_MAX_N

    started = _now()
    algorithms = [a.strip() for a in ns.algorithms.split(",") if a.strip()]
    for a in algorithms:
        if a not in ("naive", "ryser"):
            raise _UsageError(f"unknown algorithm {a!r} (naive or ryser)")
    if not algorithms:
        raise _UsageError("empty algorithm set")
    if not 2 <= ns.max_n <= RYSER_MAX_N:
        raise _UsageError(f"--max-n must be in [2, {RYSER_MAX_N}], got {ns.max_n}")
    if ns.repeats < 1:
        raise _UsageError(f"--repeats must be >= 1, got {ns.repeats}")
    seed = _resolve_seed(ns)
    rng = np.random.default_rng(seed)

    # cross-check the kernels before trusting any timing
    agreement = 0.0
    for n in range(2, min(8, ns.max_n) + 1):
        for _ in range(20):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = permanent(m, algorithm="naive")
            b = permanent(m, algorithm="ryser")
            agreement = max(agreement, abs(a - b) / max(abs(a), 1e-30))
    if agreement > 1e-10:
        sys.stderr.write(f"bench: kernels disagree ({agreement:.3e}); aborting\n")
        return EXIT_CERTIFICATION

    sizes = list(range(2, ns.max_n + 1))
    rows = []
    for algorithm in algorithms:
        cap = NAIVE_MAX_N if algorithm == "naive" else RYSER_MAX_N
        for n in sizes:
            if n > cap:
                continue
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            permanent(m, algorithm=algorithm)  # warm run
            times = []
            for _ in range(ns.repeats):
                t0 = time.perf_counter_ns()
                permanent(m, algorithm=algorithm)
                times.append(time.perf_counter_ns() - t0)
            rows.append((n, algorithm, float(np.mean(times)), float(np.std(times))))

    outputs = [os.path.abspath(ns.out)] if ns.out else []
    if ns.format == "json":
        payload = {
            "schema": 1,
            "manifest": _manifest("bench", {"max_n": ns.max_n,
                                            "algorithms": algorithms,
                                            "repeats": ns.repeats},
                                  seed, outputs, ns.no_timestamps, started, _now()),
            "agreement_max_relative_error": agreement,
            "rows": [{"n": n, "algorithm": a, "mean_ns": mu, "std_ns": sd}
                     for n, a, mu, sd in rows],
        }
        _emit(_dump_json(payload), ns.out)
    else:
        lines = ["n,algorithm,mean_ns,std_ns"]
        lines += [f"{n},{a},{mu!r},{sd!r}" for n, a, mu, sd in rows]
        _emit("\n".join(lines) + "\n", ns.out)
    if ns.out:
        sys.stdout.write(f"bench: {len(rows)} rows, kernel agreement {agreement:.3e}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def cmd_lift(ns) -> int:
    from .errors import ResourceLimitError
    from .fock import lift_unitary, lifted_to_csv, lifted_to_jsonable

    started = _now()
    if ns.photons < 1:
        raise _UsageError(f"--photons must be >= 1, got {ns.photons}")
    seed = _resolve_seed(ns)
    v, src = _source_unitary(ns, seed)
    try:
        lifted = lift_unitary(v, ns.photons)
    except ResourceLimitError as exc:
        raise _UsageError(str(exc)) from exc

    outputs = [os.path.abspath(ns.out)] if ns.out else []
    config = dict(src, photons=ns.photons, modes=int(v.shape[0]))
    if ns.format == "csv":
        _emit(lifted_to_csv(lifted), ns.out)
    else:
        payload = {
            "schema": 1,
            "manifest": _manifest("lift", config, seed, outputs,
                                  ns.no_timestamps, started, _now()),
            "lifted": lifted_to_jsonable(lifted),
        }
        _emit(_dump_json(payload), ns.out)
    if ns.out:
        dim = lifted.matrix.shape[0]
        sys.stdout.write(f"lift: {v.shape[0]} modes, {ns.photons} photons, "
                         f"{dim}x{dim} matrix\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# netlist
# ---------------------------------------------------------------------------

def cmd_netlist(ns) -> int:
    from .modes import elements_to_jsonable, reck_decompose, recompose

    started = _now()
    if ns.format == "csv":
        raise _UsageError("netlist emits JSON only")
    seed = _resolve_seed(ns)
    v, src = _source_unitary(ns, seed)
    elements = reck_decompose(v)
    dim = int(v.shape[0])
    err = float(np.max(np.abs(recompose(elements, dim) - v)))
    outputs = [os.path.abspath(ns.out)] if ns.out else []
    payload = {
        "schema": 1,
        "manifest": _manifest("netlist", dict(src, dim=dim), seed, outputs,
                              ns.no_timestamps, started, _now()),
        "dim": dim,
        "element_count": len(elements),
        "parameter_count": sum(len(e.angles) for e in elements),
        "max_recompose_error": err,
        "elements": elements_to_jsonable(elements),
    }
    _emit(_dump_json(payload), ns.out)
    if ns.out:
        sys.stdout.write(f"netlist: {len(elements)} elements, "
                         f"recompose error {err:.3e}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklift",
        description="Passive linear optics in Fock space: sweeps, no-go "
                    "certificates, invariant suites, and mesh tools.",
    )
    parser.add_argument("--version", action="version", version=f"focklift {__version__}")

    # a fresh parent per subcommand: argparse parents share action objects,
    # so a per-subparser default override would leak into the siblings
    def common(format_default: str = "json") -> argparse.ArgumentParser:
        c = argparse.ArgumentParser(add_help=False)
        c.add_argument("--seed", type=int, default=None,
                       help="RNG seed; generated and recorded if omitted")
        c.add_argument("--out", default=None, help="output file path")
        c.add_argument("--format", choices=("json", "csv"), default=format_default,
                       help="output format where a choice exists")
        c.add_argument("--no-timestamps", action="store_true",
                       help="omit timestamps and wall times for reproducible output")
        c.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sweeps and search restarts")
        return c

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[common("csv")],
                       help="tabulate leakage vs entangling power over a mixing-angle grid")
    p.add_argument("--grid", required=True,
                   help="epsilon grid: comma list '0,0.785' or range 'start:stop:count'")
    p.add_argument("--samples", type=int, default=20,
                   help="random phase tuples per grid point")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("nogo", parents=[common()],
                       help="run a no-go search from a JSON config")
    p.add_argument("--config", required=True,
                   help="config file path or packaged name (two_mode, m3, m4_ancilla)")
    p.set_defaults(func=cmd_nogo)

    p = sub.add_parser("verify", parents=[common()],
                       help="run invariant suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=tuple(_SUITES) + ("all",))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", parents=[common("csv")],
                       help="time the permanent kernels")
    p.add_argument("--max-n", type=int, default=20)
    p.add_argument("--algorithms", default="naive,ryser")
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("lift", parents=[common()],
                       help="dump the N-photon matrix of a mode unitary")
    p.add_argument("--haar", type=int, default=None,
                   help="sample a Haar-random unitary of this dimension")
    p.add_argument("--input", default=None, help="JSON file with a unitary matrix")
    p.add_argument("--photons", type=int, required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("netlist", parents=[common()],
                       help="triangular mesh decomposition of a mode unitary")
    p.add_argument("--haar", type=int, default=None,
                   help="sample a Haar-random unitary of this dimension")
    p.add_argument("--input", default=None, help="JSON file with a unitary matrix")
    p.set_defaults(func=cmd_netlist)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    if getattr(ns, "jobs", 1) < 1:
        sys.stderr.write("error: --jobs must be >= 1\n")
        return EXIT_USAGE
    try:
        return ns.func(ns)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
