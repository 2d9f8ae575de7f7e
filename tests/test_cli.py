"""End-to-end checks for the command line interface.

Everything runs in-process through main(argv). Output capture goes through
explicit --out files or redirect_stdout, so the suite works with -s.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

import focklift.cli
from focklift.cli import (EXIT_CERTIFICATION, EXIT_IO, EXIT_OK, EXIT_USAGE, MAX_GRID_POINTS,
                          _build_parser, main)
from focklift.linalg import haar_random_unitary
from focklift.nogo import MAX_JOBS


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_err(*argv):
    """Like run, but returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run(*argv)
    return code, err.getvalue()


def write_config(path, **overrides):
    cfg = {"mode": "two_mode", "modes": 2, "restarts": 3, "max_iterations": 120,
           "leakage_tolerance": 1e-10, "penalty_weight": 1e5,
           "certification_threshold": 1e-6, "seed": 7}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_writes_csv_and_summary(tmp_path):
    out = tmp_path / "sweep.csv"
    code, _ = run("sweep", "--grid", "0:1.5707963:9", "--out", str(out))
    assert code == EXIT_OK
    # the sweep draws no random numbers: a second run writes the same bytes
    out2 = tmp_path / "sweep2.csv"
    code, _ = run("sweep", "--grid", "0:1.5707963:9", "--out", str(out2))
    assert code == EXIT_OK
    assert out2.read_bytes() == out.read_bytes()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,leakage,entangling_measure"
    assert len(lines) == 10
    summary = json.loads((tmp_path / "sweep.summary.json").read_text())
    assert summary["rows"] == 9
    assert summary["anti_correlation"] is True
    # endpoints sit on the decoupling set
    first = lines[1].split(",")
    assert float(first[1]) < 1e-12


def test_sweep_requires_out(tmp_path):
    code, _ = run("sweep", "--grid", "0:1:3")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("args, prefix", [
    pytest.param(["--grid", ""], "error: ", id="empty"),
    pytest.param(["--grid", "0,nan"], "error: ", id="nan"),
    pytest.param(["--grid", "inf"], "error: ", id="inf"),
    pytest.param(["--grid", "0:inf:3"], "error: ", id="inf-range"),
    # an unbounded count once asked numpy for a 7.45 GiB linspace
    pytest.param(["--grid", f"0:1:{MAX_GRID_POINTS + 1}"], "error: ", id="oversize-range"),
    # a billion samples once asked numpy for 37.3 GiB; the sweep now takes
    # no sample count at all, so the parser refuses every one
    pytest.param(["--grid", "0", "--samples", "1000000001"], "usage: focklift",
                 id="oversize-samples"),
    pytest.param(["--grid", "0", "--samples", "0"], "usage: focklift", id="no-samples"),
])
def test_sweep_rejects_bad_grid(tmp_path, args, prefix):
    # a NaN point once died in round(NaN) inside modes.py with exit 1
    out = tmp_path / "x.csv"
    code, err = run_err("sweep", *args, "--out", str(out))
    assert code == EXIT_USAGE
    assert err.startswith(prefix)
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1", str(MAX_JOBS + 1)])
def test_sweep_rejects_a_bad_jobs_value(tmp_path, jobs):
    # the sweep scores its grid in one in-process call and takes no --jobs
    out = tmp_path / "x.csv"
    code, err = run_err("sweep", "--grid", "0,0.5", "--jobs", jobs, "--out", str(out))
    assert code == EXIT_USAGE
    assert err.startswith("usage: focklift") and "--jobs" in err
    assert list(tmp_path.iterdir()) == []


def test_failed_sweep_leaves_neither_file(tmp_path):
    # the summary write fails after the CSV is in place; the CSV once stayed
    (tmp_path / "sw.summary.json").mkdir()
    out = tmp_path / "sw.csv"
    code, _ = run("sweep", "--grid", "0,0.5", "--out", str(out))
    assert code == EXIT_IO
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sw.summary.json"]


def test_sweep_comma_grid(tmp_path):
    out = tmp_path / "s.csv"
    code, _ = run("sweep", "--grid", "0.0,0.5,1.0", "--out", str(out))
    assert code == EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 4


# ---------------------------------------------------------------------------
# nogo
# ---------------------------------------------------------------------------

def test_nogo_two_mode_certifies(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "result.json"
    code, _ = run("nogo", "--config", cfg, "--out", str(out), "--no-timestamps")
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["certified"] is True
    assert doc["result"]["best_entangling_measure"] < 1e-6
    assert "started" not in doc["manifest"]
    assert "wall_time" not in doc["result"]


def test_nogo_unconstrained_reports_no_verdict(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", penalty_weight=0.0, seed=51,
                       max_iterations=300, restarts=6)
    out = tmp_path / "result.json"
    code, _ = run("nogo", "--config", cfg, "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["certified"] is None
    assert doc["result"]["best_entangling_measure"] > 0.1


def test_nogo_certification_failure_exits_three(tmp_path):
    # a tolerance above the largest leakage, sqrt 2, admits every gate, so a
    # weak penalty finds a feasible entangling one and the certificate fails
    cfg = write_config(tmp_path / "cfg.json", leakage_tolerance=2.0, penalty_weight=1e-3)
    code, _ = run("nogo", "--config", cfg, "--out", str(tmp_path / "r.json"))
    assert code == EXIT_CERTIFICATION
    assert json.loads((tmp_path / "r.json").read_text())["certified"] is False


def test_nogo_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1 = tmp_path / "a.json"
    run("nogo", "--config", cfg, "--seed", "99", "--out", str(out1))
    doc = json.loads(out1.read_text())
    assert doc["manifest"]["seed"] == 99
    assert doc["manifest"]["config"]["seed"] == 99


def test_nogo_ancilla_mode(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", mode="ancilla", modes=3,
                       ancilla_photons=0, restarts=3, seed=55)
    out = tmp_path / "anc.json"
    code, _ = run("nogo", "--config", cfg, "--out", str(out))
    assert code == EXIT_OK
    assert json.loads(out.read_text())["certified"] is True


def test_nogo_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("nogo", "--config", str(bad))[0] == EXIT_USAGE

    assert run("nogo", "--config", str(tmp_path / "missing.json"))[0] == EXIT_USAGE

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"mode": "two_mode", "modes": 1}))
    assert run("nogo", "--config", str(wrong))[0] == EXIT_USAGE

    # a non-UTF-8 file once gave a UnicodeDecodeError traceback and exit 1
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"mode": "two_mode", "note": "\xe9"}')
    code, err = run_err("nogo", "--config", str(latin))
    assert code == EXIT_USAGE and err.startswith("error: ")

    boolean = tmp_path / "boolean.json"
    boolean.write_text(json.dumps({"mode": "two_mode", "modes": True}))
    code, err = run_err("nogo", "--config", str(boolean))
    assert code == EXIT_USAGE and "modes" in err

    # a Fock sector beyond the basis cap is a config error, not a crash
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"mode": "ancilla", "modes": 30, "ancilla_photons": 12,
                               "restarts": 1}))
    code, err = run_err("nogo", "--config", str(big))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "cap" in err

    # a billion restarts once died in a MemoryError traceback with exit 1
    many = tmp_path / "many.json"
    many.write_text(json.dumps({"mode": "two_mode", "restarts": 1_000_000_000}))
    code, err = run_err("nogo", "--config", str(many))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "restarts" in err


@pytest.mark.parametrize("field, value", [
    ("penalty_weight", float("nan")),
    ("penalty_weight", float("inf")),
    ("restarts", 2.5),
    ("restarts", "3"),
    ("seed", "x"),
    ("certification_threshold", -1),
    ("ancilla_photons", 1),
    pytest.param("penalty_weight", 10 ** 400, id="penalty_weight-400-digits"),
])
def test_nogo_rejects_malformed_field_values(tmp_path, field, value):
    # NaN and inf reach the config as JSON's NaN/Infinity tokens
    cfg = write_config(tmp_path / "cfg.json", **{field: value})
    out = tmp_path / "r.json"
    code, err = run_err("nogo", "--config", cfg, "--out", str(out))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and field in err
    assert not out.exists()


def test_nogo_packaged_config_resolves(tmp_path):
    # bare name falls back to the packaged configuration directory
    out = tmp_path / "m3.json"
    code, _ = run("nogo", "--config", "m3", "--out", str(out), "--jobs", "2")
    assert code == EXIT_OK
    assert json.loads(out.read_text())["certified"] is True


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def test_lift_haar_round_trip(tmp_path):
    out = tmp_path / "lift.json"
    code, _ = run("lift", "--haar", "3", "--photons", "2", "--seed", "8",
                  "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    lifted = doc["lifted"]
    assert lifted["modes"] == 3
    assert lifted["photons"] == 2
    assert len(lifted["basis"]) == 6
    mat = np.array([[complex(re, im) for re, im in row] for row in lifted["matrix"]])
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(6))) < 1e-10


def test_lift_reads_matrix_file(tmp_path):
    rng = np.random.default_rng(9)
    v = haar_random_unitary(2, rng)
    src = tmp_path / "v.json"
    src.write_text(json.dumps(
        {"matrix": [[[z.real, z.imag] for z in row] for row in v]}))
    out = tmp_path / "lift.csv"
    code, _ = run("lift", "--input", str(src), "--photons", "1",
                  "--format", "csv", "--out", str(out))
    assert code == EXIT_OK
    # single-photon lift is the matrix itself; CSV is flat re,im pairs
    rows = out.read_text().strip().splitlines()
    got = np.array([[float(x) for x in r.split(",")] for r in rows])
    flat = got[:, 0::2] + 1j * got[:, 1::2]
    assert np.max(np.abs(flat - v)) < 1e-15


def refuse_draw(dim, seed):
    raise AssertionError("a unitary was drawn")


def test_lift_checks_the_sector_before_the_draw(tmp_path, monkeypatch):
    # --haar 100000 --photons 1 once drew a 74.5 GiB unitary before the lift
    # refused its 100 000-state sector
    monkeypatch.setattr(importlib.import_module("focklift.fock"), "MAX_BASIS_SIZE", 40)
    argv = ["lift", "--photons", "1", "--seed", "1", "--out", str(tmp_path / "l.json")]
    assert run(*argv, "--haar", "39")[0] == EXIT_OK  # 1 + 39**2 entries <= 40**2
    monkeypatch.setattr(focklift.cli, "haar_random_unitary", refuse_draw)
    code, err = run_err(*argv, "--haar", "40")
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "cap" in err


def test_netlist_caps_the_haar_dimension(tmp_path, monkeypatch):
    # --haar 20000 once died drawing a 2.98 GiB unitary
    monkeypatch.setattr(focklift.cli, "MAX_NETLIST_DIM", 5)
    out = tmp_path / "n.json"
    assert run("netlist", "--haar", "5", "--seed", "1", "--out", str(out))[0] == EXIT_OK
    out.unlink()
    monkeypatch.setattr(focklift.cli, "haar_random_unitary", refuse_draw)
    code, err = run_err("netlist", "--haar", "6", "--seed", "1", "--out", str(out))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "cap" in err
    assert not out.exists()


def test_lift_usage_errors(tmp_path):
    assert run("lift", "--photons", "2")[0] == EXIT_USAGE
    assert run("lift", "--haar", "2", "--input", "x.json", "--photons", "1")[0] == EXIT_USAGE
    assert run("lift", "--haar", "2", "--photons", "0")[0] == EXIT_USAGE

    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"matrix": [[1, 2], [3, 4]]}))
    assert run("lift", "--input", str(src), "--photons", "1")[0] == EXIT_USAGE


@pytest.mark.parametrize("command", [["lift", "--photons", "2"], ["netlist"]])
@pytest.mark.parametrize("entries", [
    [["NaN", "NaN"], ["NaN", "NaN"]],
    [[1, "Infinity"], [0, 1]],
    pytest.param([[True, False], [False, True]], id="boolean"),
    pytest.param([[10 ** 400, 0], [0, 1]], id="400-digits"),
    pytest.param(b"[[1, 0], [0, 1]] \xff", id="not-utf8"),
])
def test_non_finite_matrix_file_is_usage_error(tmp_path, command, entries):
    # lift once wrote bare NaN tokens with exit 0; netlist died in round(NaN);
    # true/false once lifted as 1/0, and a non-UTF-8 file or a 400-digit
    # entry gave a traceback
    src = tmp_path / "v.json"
    if not isinstance(entries, bytes):
        entries = json.dumps(entries).replace('"', "").encode()
    src.write_bytes(entries)
    out = tmp_path / "o.json"
    code, _ = run(*command, "--input", str(src), "--out", str(out))
    assert code == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("command", [["lift", "--photons", "2"], ["netlist"]])
def test_input_runs_record_no_seed_and_repeat_bytes(tmp_path, command):
    # an --input run draws no random numbers, so it records no seed; a fresh
    # random seed in the manifest once made two identical runs differ
    src = tmp_path / "v.json"
    src.write_text(json.dumps(
        [[[z.real, z.imag] for z in row] for row in haar_random_unitary(3, 19)]))
    out = tmp_path / "o.json"
    argv = [*command, "--input", str(src), "--no-timestamps", "--out", str(out)]
    assert run(*argv)[0] == EXIT_OK
    first = out.read_bytes()
    assert json.loads(first)["manifest"]["seed"] is None
    assert run(*argv)[0] == EXIT_OK
    assert out.read_bytes() == first


# ---------------------------------------------------------------------------
# netlist
# ---------------------------------------------------------------------------

def test_netlist_decomposes_haar(tmp_path):
    out = tmp_path / "net.json"
    code, _ = run("netlist", "--haar", "4", "--seed", "10", "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["dim"] == 4
    assert doc["element_count"] <= 10
    assert doc["parameter_count"] <= 16
    assert doc["max_recompose_error"] < 1e-10
    assert all(e["kind"] in ("phase-shifter", "beam-splitter") for e in doc["elements"])


@pytest.mark.parametrize("argv", [
    pytest.param(["sweep", "--grid", "0,0.5", "--format", "json"], id="sweep-format"),
    # the sweep scores each mixing angle at zero phases: no samples, seed or jobs
    pytest.param(["sweep", "--grid", "0,0.5", "--samples", "20"], id="sweep-samples"),
    pytest.param(["sweep", "--grid", "0,0.5", "--seed", "1"], id="sweep-seed"),
    pytest.param(["sweep", "--grid", "0,0.5", "--jobs", "2"], id="sweep-jobs"),
    pytest.param(["nogo", "--config", "CFG", "--format", "csv"], id="nogo-format"),
    pytest.param(["lift", "--haar", "2", "--photons", "1", "--jobs", "2"], id="lift-jobs"),
    pytest.param(["netlist", "--haar", "3", "--format", "csv"], id="netlist-format"),
])
def test_unread_flag_is_usage_error(tmp_path, argv):
    # each command takes only the flags its code reads; the rest once
    # passed silently (sweep still wrote CSV)
    argv = [write_config(tmp_path / "cfg.json") if a == "CFG" else a for a in argv]
    out = tmp_path / "out"
    code, err = run_err(*argv, "--out", str(out))
    assert code == EXIT_USAGE
    assert err.startswith("usage: focklift")
    assert not out.exists()


@pytest.mark.parametrize("argv, file, code, line", [
    pytest.param(["sweep", "--grid", "1:2", "--out", "FILE.csv"], None, EXIT_USAGE,
                 "error: grid range must be start:stop:count, got '1:2'", id="two-part-grid"),
    pytest.param(["lift", "--photons", "1", "--input", "FILE"], None, EXIT_IO,
                 "I/O error: cannot read matrix file 'FILE'", id="unreadable-input"),
    pytest.param(["netlist", "--input", "FILE"], {"foo": 1}, EXIT_USAGE,
                 "error: matrix file 'FILE' holds no matrix", id="matrix-file-without-matrix"),
    pytest.param(["nogo", "--config", "FILE"], [1, 2], EXIT_USAGE,
                 "error: config FILE must be a JSON object", id="config-list"),
    pytest.param(["nogo", "--config", "FILE"], {"mode": "bogus"}, EXIT_USAGE,
                 "error: unknown search mode 'bogus' (two_mode or ancilla)", id="config-mode"),
])
def test_each_input_error_exits_with_its_error_line(tmp_path, argv, file, code, line):
    # FILE names a path in tmp_path, written with the JSON of file unless it is None
    path = tmp_path / "in.json"
    if file is not None:
        path.write_text(json.dumps(file))
    argv = [a.replace("FILE", str(path)) for a in argv]
    got, err = run_err(*argv)
    assert got == code
    assert err.startswith(line.replace("FILE", str(path))), err
    assert list(tmp_path.iterdir()) == ([path] if file is not None else [])


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_unwritable_out_exits_io_and_leaves_no_partial(tmp_path):
    target_dir = tmp_path / "missing"
    out = target_dir / "x.json"
    code, _ = run("lift", "--haar", "2", "--photons", "1", "--out", str(out))
    assert code == EXIT_IO
    assert not target_dir.exists()
    # atomic writes never leave temp droppings next to the target
    assert list(tmp_path.iterdir()) == []


def test_outputs_get_the_mode_open_gives(tmp_path):
    # temp files once came from mkstemp, so every output was mode 0600
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    out = tmp_path / "lift.json"
    assert run("lift", "--haar", "2", "--photons", "1", "--seed", "1", "--out", str(out))[0] == EXIT_OK
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_stdout_fallback_without_out():
    code, out = run("lift", "--haar", "2", "--photons", "1", "--seed", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["lifted"]["modes"] == 2


def test_readme_flag_table_matches_the_parser():
    # the table once kept listing flags and commands the parser had dropped
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Each subcommand takes only the flags it reads:")[1]
    listed = {}
    for row in table.strip().split("\n\n")[0].splitlines()[2:]:
        names, flags = row.strip("|").split("|")
        for name in re.findall(r"`([a-z]+)`", names):
            listed[name] = re.findall(r"`(--[a-z-]+)`", flags)
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(listed) == sorted(subparsers)
    for name, flags in listed.items():
        accepted = {opt for a in subparsers[name]._actions for opt in a.option_strings}
        assert flags and set(flags) <= accepted, name


def test_unknown_subcommand_is_usage_error():
    # verify and bench were removed: the test suite holds the invariant
    # checks and perfbench the permanent timings
    for name in ("frobnicate", "verify", "bench"):
        assert run(name)[0] == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["lift", "--haar", "2", "--photons", "1"],
    ["netlist", "--haar", "2"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_usage_error(tmp_path, argv):
    # numpy once rejected the seed with a ValueError traceback and exit 1
    out = tmp_path / "o.out"
    code, err = run_err(*argv, "--seed", "-1", "--out", str(out))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "--seed" in err
    assert not out.exists()


def test_manifest_records_outputs(tmp_path):
    out = tmp_path / "r.json"
    cfg = write_config(tmp_path / "cfg.json")
    run("nogo", "--config", cfg, "--out", str(out), "--no-timestamps")
    doc = json.loads(out.read_text())
    manifest = doc["manifest"]
    assert manifest["command"] == "nogo"
    assert str(out) in manifest["outputs"]
    assert manifest["seed"] == 7


def test_determinism_matches_byte_for_byte(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", restarts=2, max_iterations=80)
    out = tmp_path / "same.json"
    run("nogo", "--config", cfg, "--out", str(out), "--no-timestamps")
    first = out.read_bytes()
    run("nogo", "--config", cfg, "--out", str(out), "--no-timestamps")
    assert out.read_bytes() == first
