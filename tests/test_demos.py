"""Every demo script, and the README quick start, runs to completion.

Each runs in a fresh interpreter with ``PYTHONPATH=src``, as its readers
would run it, from an empty working directory so that nothing it might
write lands in the checkout; it must exit 0 and print something.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


def run_clean(args, cwd):
    """Run python with args in cwd; require exit 0 and some output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    run_clean([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    run_clean(["-c", blocks[0]], tmp_path)
