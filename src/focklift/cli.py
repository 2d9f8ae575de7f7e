"""Batch front end: sweeps, no-go searches, lifted-matrix dumps, and mesh
netlists.

Every JSON report comes from ``_report``: ``"schema": 1`` plus a manifest
with the command, the effective config, the seed, the package version, and
the output paths.  Timestamps and wall times are dropped under
--no-timestamps so that identical command + config + seed runs are
byte-identical.  ``_emit`` either writes a command's output to ``--out``
(a temp name, atomically renamed, so a failed run never leaves a partial
file) and prints a one-line summary, or writes the output to stdout.

Each subcommand takes only the flags it reads.  A bad argument, a malformed
input file or config, or an oversize Fock sector raises the package's
InvalidInputError or ResourceLimitError, which ``main`` turns into one
``error:`` line and exit code 2.

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
from datetime import datetime, timezone
from importlib import resources

import numpy as np

# searches are called through the module so that a wrapper installed on
# focklift.nogo (as the benchmark's tracer does) sees them
from . import __version__, nogo
from .errors import InvalidInputError, ResourceLimitError
from .fock import _check_lift_size, lift_unitary, lifted_to_csv, lifted_to_jsonable
from .linalg import _finite, _integer, haar_random_unitary, require_unitary
from .modes import elements_to_jsonable, reck_decompose, recompose

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CERTIFICATION = 3
EXIT_IO = 4

# a start:stop:count grid is rejected above this many points, before numpy
# allocates it; the sweep scores the grid in one call, which at the cap
# raises peak memory by ~155 MB
MAX_GRID_POINTS = 100_000
# netlist --haar is rejected above this dimension, before the draw; a netlist
# at the cap takes 2.5 s (and 3.5 MB of JSON) on 2 vCPUs, and the time grows
# about as M^3
MAX_NETLIST_DIM = 200


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _atomic_write(path: str, text: str) -> None:
    # os.open with 0o666 applies the umask exactly as open() does; mkstemp
    # would leave the output readable by its owner alone (mode 0600)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".focklift-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _report(ns, config: dict, seed: int | None, body: dict) -> dict:
    """The versioned report envelope around a command's body."""
    manifest = {
        "command": ns.command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": [os.path.abspath(ns.out)] if ns.out else [],
    }
    if not ns.no_timestamps:
        manifest["started"] = ns.started
        manifest["finished"] = _now()
    return {"schema": 1, "manifest": manifest, **body}


def _emit(out: str | None, text: str, summary: str) -> None:
    """Write text to out (atomic) and print the summary line, or write text
    to stdout when there is no output path."""
    if out is None:
        sys.stdout.write(text)
        return
    _atomic_write(out, text)
    sys.stdout.write(summary + "\n")


def _resolve_seed(ns) -> int:
    # generated seeds still land in the manifest so a run can be replayed
    if ns.seed is None:
        return secrets.randbits(32)
    return _integer(ns.seed, "--seed", 0)


def _parse_grid(spec: str) -> list[float]:
    spec = spec.strip()
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise InvalidInputError(f"grid range must be start:stop:count, got {spec!r}")
    try:
        if len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count > MAX_GRID_POINTS:
                raise InvalidInputError(f"grid has {count} points, cap is {MAX_GRID_POINTS}")
            with np.errstate(invalid="ignore"):
                values = [float(x) for x in np.linspace(start, stop, count)]
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"bad epsilon grid {spec!r}: {exc}") from exc
    if not values:
        raise InvalidInputError(f"empty epsilon grid {spec!r}")
    if not all(math.isfinite(x) for x in values):
        raise InvalidInputError(f"epsilon grid {spec!r} has a non-finite point")
    return values


def _load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read matrix file {path!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"matrix file {path!r} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("matrix")
    if not isinstance(data, list) or not data:
        raise InvalidInputError(f"matrix file {path!r} holds no matrix")

    def entry(e):
        real, imag = e if isinstance(e, list) and len(e) == 2 else (e, 0)
        return complex(_finite(real, "matrix entry"), _finite(imag, "matrix entry"))

    try:
        return np.array([[entry(e) for e in row] for row in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"matrix file {path!r} is ragged or malformed: {exc}") from exc


def _source_unitary(ns) -> tuple[np.ndarray, dict, int | None]:
    """The mode unitary, its source record and the seed it was drawn with
    (None for an --input matrix, which uses no randomness)."""
    if (ns.haar is None) == (ns.input is None):
        raise InvalidInputError("give exactly one of --haar M or --input PATH")
    if ns.haar is not None:
        seed = _resolve_seed(ns)
        v = haar_random_unitary(ns.haar, seed)
        src = {"haar_dim": ns.haar}
    else:
        seed = None
        v = _load_matrix(ns.input)
        src = {"input": os.path.abspath(ns.input)}
    require_unitary(v, name="input matrix")
    return v, src, seed


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(ns) -> int:
    grid = _parse_grid(ns.grid)
    if ns.out is None:
        raise InvalidInputError("sweep requires --out for the CSV table")
    # the four phases move neither score, so the grid is scored at zero phases
    measure, leak = nogo._TwoModeFamily().scores(np.array(grid)[:, None]).T.tolist()
    rows = list(zip(grid, leak, measure))

    zero_rows = [r for r in rows if r[1] < 1e-12]
    max_measure_zero = max((r[2] for r in zero_rows), default=0.0)
    report = _report(ns, {"grid": ns.grid, "points": len(grid)}, None, {
        "rows": len(rows),
        "zero_leakage_rows": len(zero_rows),
        "max_measure_on_zero_leakage": max_measure_zero,
        "anti_correlation": bool(max_measure_zero < 1e-10),
        "max_leakage": max(r[1] for r in rows),
        "max_measure": max(r[2] for r in rows),
    })
    summary_path = os.path.splitext(ns.out)[0] + ".summary.json"
    report["manifest"]["outputs"].append(os.path.abspath(summary_path))
    _atomic_write(ns.out, "epsilon,leakage,entangling_measure\n"
                  + "".join(f"{e!r},{l!r},{m!r}\n" for e, l, m in rows))
    try:
        _emit(summary_path, _dump_json(report),
              f"sweep: {len(rows)} points, {len(zero_rows)} decoupled, "
              f"max measure on decoupled rows {max_measure_zero:.3e}")
    except OSError:
        # a failed sweep leaves neither file
        os.unlink(ns.out)
        raise
    return EXIT_OK


# ---------------------------------------------------------------------------
# nogo
# ---------------------------------------------------------------------------

def _load_search_config(name: str) -> tuple[dict, str]:
    if os.path.exists(name):
        try:
            with open(name, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"config {name!r} is not valid JSON: {exc}") from exc
        return raw, os.path.abspath(name)
    ref = resources.files("focklift").joinpath("configs", name + ".json")
    if ref.is_file():
        return json.loads(ref.read_text()), f"packaged:{name}"
    raise InvalidInputError(
        f"config {name!r} is neither a file nor a packaged config "
        f"(packaged: two_mode, m3, m4_ancilla)"
    )


def cmd_nogo(ns) -> int:
    raw, origin = _load_search_config(ns.config)
    if not isinstance(raw, dict):
        raise InvalidInputError(f"config {origin} must be a JSON object")
    mode = raw.get("mode", "two_mode" if raw.get("modes", 2) == 2 else "ancilla")
    if mode not in ("two_mode", "ancilla"):
        raise InvalidInputError(f"unknown search mode {mode!r} (two_mode or ancilla)")
    if ns.seed is not None:
        raw = dict(raw, seed=ns.seed)
    cfg = nogo.SearchConfig.from_jsonable(raw)
    search = nogo.nogo_search_two_mode if mode == "two_mode" else nogo.nogo_search_ancilla
    result = search(cfg, jobs=ns.jobs)

    certified = None
    if result.constrained:
        certified = bool(result.feasible
                         and result.best_entangling_measure < cfg.certification_threshold)
    body = result.to_jsonable()
    if ns.no_timestamps:
        del body["wall_time"]
    report = _report(ns, dict(raw, mode=mode), cfg.seed, {
        "mode": mode,
        "certification_threshold": cfg.certification_threshold,
        "certified": certified,
        "result": body,
    })
    label = {True: "certified", False: "VIOLATION", None: "unconstrained"}[certified]
    _emit(ns.out, _dump_json(report),
          f"nogo [{mode}] {label}: best measure "
          f"{result.best_entangling_measure:.6e}, leakage {result.best_leakage:.3e}")
    return EXIT_CERTIFICATION if certified is False else EXIT_OK


# ---------------------------------------------------------------------------
# lift and netlist
# ---------------------------------------------------------------------------

def cmd_lift(ns) -> int:
    _integer(ns.photons, "--photons", 1)
    if ns.haar is not None and ns.haar >= 1:
        # an oversize sector is refused before numpy draws the M x M unitary;
        # M < 1 is left to the draw's own check
        _check_lift_size(ns.haar, ns.photons)
    v, src, seed = _source_unitary(ns)
    lifted = lift_unitary(v, ns.photons)
    if ns.format == "csv":
        text = lifted_to_csv(lifted)
    else:
        config = dict(src, photons=ns.photons, modes=int(v.shape[0]))
        text = _dump_json(_report(ns, config, seed, {"lifted": lifted_to_jsonable(lifted)}))
    dim = lifted.matrix.shape[0]
    _emit(ns.out, text, f"lift: {v.shape[0]} modes, {ns.photons} photons, {dim}x{dim} matrix")
    return EXIT_OK


def cmd_netlist(ns) -> int:
    if ns.haar is not None and ns.haar > MAX_NETLIST_DIM:
        raise ResourceLimitError(f"--haar {ns.haar} is above the netlist cap of {MAX_NETLIST_DIM}")
    v, src, seed = _source_unitary(ns)
    elements = reck_decompose(v)
    dim = int(v.shape[0])
    err = float(np.max(np.abs(recompose(elements, dim) - v)))
    report = _report(ns, dict(src, dim=dim), seed, {
        "dim": dim,
        "element_count": len(elements),
        "parameter_count": sum(len(e.angles) for e in elements),
        "max_recompose_error": err,
        "elements": elements_to_jsonable(elements),
    })
    _emit(ns.out, _dump_json(report),
          f"netlist: {len(elements)} elements, recompose error {err:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklift",
        description="Passive linear optics in Fock space: sweeps, no-go "
                    "certificates, lifted matrices, and mesh tools.",
    )
    parser.add_argument("--version", action="version", version=f"focklift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, seed=True, source=False):
        """A subcommand with --out, --no-timestamps and the other flags its
        code reads."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed (>= 0); generated and recorded if omitted")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--no-timestamps", action="store_true",
                       help="omit timestamps and wall times for reproducible output")
        if source:
            p.add_argument("--haar", type=int, default=None,
                           help="sample a Haar-random unitary of this dimension")
            p.add_argument("--input", default=None, help="JSON file with a unitary matrix")
        return p

    p = command("sweep", cmd_sweep,
                "tabulate leakage vs entangling power over a mixing-angle grid", seed=False)
    p.add_argument("--grid", required=True,
                   help="epsilon grid: comma list '0,0.785' or range 'start:stop:count'")

    p = command("nogo", cmd_nogo, "run a no-go search from a JSON config")
    p.add_argument("--config", required=True,
                   help="config file path or packaged name (two_mode, m3, m4_ancilla)")
    p.add_argument("--jobs", type=int, default=1,
                   help=f"worker processes, 1..{nogo.MAX_JOBS}; results do not depend on it")

    p = command("lift", cmd_lift, "dump the N-photon matrix of a mode unitary", source=True)
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    p.add_argument("--photons", type=int, required=True)

    command("netlist", cmd_netlist, "triangular mesh decomposition of a mode unitary",
            source=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    ns.started = _now()
    try:
        return ns.func(ns)
    except (InvalidInputError, ResourceLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
