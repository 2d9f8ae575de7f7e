"""The package's public surface, and what importing and running it loads.

``focklift.__all__`` is pinned name by name, so a name joins or leaves the
public surface only on purpose.

The no-go searches run an in-package Nelder-Mead, and scipy.optimize takes
about half a second to import, so neither ``import focklift`` nor any
command may load it.  Nor does ``import focklift`` load the process pool
(concurrent.futures and with it multiprocessing), which only ``jobs > 1``
uses.  Each check runs in a fresh interpreter, because this test process
may have loaded them.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import focklift

SUBMODULES = ["errors", "linalg", "permanent", "fock", "modes", "singlerail", "nogo"]

PUBLIC = [
    "AncillaCheckReport", "BASIS_SIX", "CompositeGateParams", "FockBasis", "InvalidInputError",
    "LeakageReport", "LeakyGateError", "LiftedUnitary", "OccupationPolynomial",
    "OpticalElement", "ResourceLimitError", "SWAP", "SearchConfig", "SearchResult",
    "__version__", "assemble_from_mode_matrix", "basis_enumerate", "basis_monomial",
    "basis_to_jsonable", "beam_splitter", "block_diagonality_defect", "block_lemma_check",
    "bunched_partition", "composite_gate_fock", "composite_gate_mode_matrix",
    "computational_block", "decoupled_form_even", "decoupled_form_odd",
    "dont_cause_errors_residuals", "elements_from_jsonable",
    "elements_to_jsonable", "entangling_measure", "exp_i_hermitian", "extract_computational",
    "haar_random_unitary", "leakage", "lift_unitary", "lift_via_substitution",
    "lifted_to_csv", "lifted_to_jsonable", "nearest_unitary_block", "nogo_search_ancilla",
    "nogo_search_two_mode", "permanent", "poly_to_vector", "reck_decompose", "recompose",
]


def test_public_names_are_pinned():
    assert sorted(focklift.__all__) == PUBLIC


def test_every_exported_name_resolves_to_its_submodule_object():
    # focklift.permanent is the function, so submodules come from importlib
    home = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"focklift.{name}")
        for attr in module.__all__:
            home[attr] = getattr(module, attr)
    for attr in focklift.__all__:
        if attr != "__version__":
            assert getattr(focklift, attr) is home[attr], attr

SRC = Path(__file__).resolve().parents[1] / "src"


def module_loaded(body: str, tmp_path, module: str = "scipy.optimize") -> bool:
    """Run body in a fresh interpreter and say whether it loaded module."""
    script = ("import sys\nsys.path.insert(0, sys.argv[1])\nout = sys.argv[2]\n" + body
              + "\nprint(sys.argv[3] in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(SRC), str(tmp_path), module],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


def test_import_focklift_leaves_the_optimizer_unloaded(tmp_path):
    assert not module_loaded("import focklift\nimport focklift.nogo", tmp_path)


def test_import_focklift_leaves_the_process_pool_unloaded(tmp_path):
    assert not module_loaded("import focklift\nimport focklift.nogo", tmp_path,
                             "concurrent.futures")


def test_lift_netlist_and_sweep_leave_the_optimizer_unloaded(tmp_path):
    body = """
from focklift.cli import main
codes = [
    main(["lift", "--haar", "3", "--photons", "2", "--seed", "1", "--out", out + "/lift.json"]),
    main(["netlist", "--haar", "3", "--seed", "1", "--out", out + "/net.json"]),
    main(["sweep", "--grid", "0:1:2", "--out", out + "/sweep.csv"]),
]
assert codes == [0, 0, 0], codes
"""
    assert not module_loaded(body, tmp_path)


def test_nogo_search_leaves_the_optimizer_unloaded(tmp_path):
    two_mode = {"mode": "two_mode", "modes": 2, "restarts": 2, "max_iterations": 30, "seed": 1}
    ancilla = {"mode": "ancilla", "modes": 3, "restarts": 1, "max_iterations": 10, "seed": 1}
    (tmp_path / "two_mode.json").write_text(json.dumps(two_mode))
    (tmp_path / "ancilla.json").write_text(json.dumps(ancilla))
    body = """
from focklift.cli import main
for name in ("two_mode", "ancilla"):
    code = main(["nogo", "--config", f"{out}/{name}.json", "--out", f"{out}/{name}.out.json"])
    assert code == 0, (name, code)
"""
    assert not module_loaded(body, tmp_path)
