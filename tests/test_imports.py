"""No focklift command loads scipy.optimize.

The no-go searches run an in-package Nelder-Mead, and scipy.optimize takes
about half a second to import, so neither ``import focklift`` nor any
command may load it.  Each check runs in a fresh interpreter, because this
test process may have loaded it.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def optimizer_loaded(body: str, tmp_path) -> bool:
    """Run body in a fresh interpreter and say whether it loaded scipy.optimize."""
    script = ("import sys\nsys.path.insert(0, sys.argv[1])\nout = sys.argv[2]\n" + body
              + "\nprint('scipy.optimize' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


def test_import_focklift_leaves_the_optimizer_unloaded(tmp_path):
    assert not optimizer_loaded("import focklift\nimport focklift.nogo", tmp_path)


def test_lift_netlist_and_sweep_leave_the_optimizer_unloaded(tmp_path):
    body = """
from focklift.cli import main
codes = [
    main(["lift", "--haar", "3", "--photons", "2", "--seed", "1", "--out", out + "/lift.json"]),
    main(["netlist", "--haar", "3", "--seed", "1", "--out", out + "/net.json"]),
    main(["sweep", "--grid", "0:1:2", "--samples", "1", "--seed", "1",
          "--out", out + "/sweep.csv"]),
]
assert codes == [0, 0, 0], codes
"""
    assert not optimizer_loaded(body, tmp_path)


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
    assert not optimizer_loaded(body, tmp_path)
