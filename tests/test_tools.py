"""The tools under tools/ refuse arguments they cannot use, before running anything."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
USAGES = {
    "cli_bytes.py": "python tools/cli_bytes.py CHECKOUT",
    "hash_searches.py": "python tools/hash_searches.py CHECKOUT SEED...",
    "retained_memory.py": "python tools/retained_memory.py CHECKOUT WORKLOAD SEED",
}


def _run(tool, *argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), *argv],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.mark.parametrize("tool", sorted(USAGES))
def test_no_arguments_exit_2_with_the_usage_line(tool):
    proc = _run(tool)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"usage: {USAGES[tool]}\n")


@pytest.mark.parametrize("tool, argv", [
    ("cli_bytes.py", [".", "extra"]),
    ("hash_searches.py", ["."]),
    ("hash_searches.py", [".", "31", "x"]),
    ("retained_memory.py", [".", "qudit"]),
    ("retained_memory.py", [".", "qutrit", "1"]),
    ("retained_memory.py", [".", "qudit", "1.5"]),
])
def test_bad_arguments_exit_2_with_the_usage_line(tool, argv):
    proc = _run(tool, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"usage: {USAGES[tool]}\n")


@pytest.mark.parametrize("tool, argv", [
    ("cli_bytes.py", []),
    ("hash_searches.py", ["31"]),
    ("retained_memory.py", ["qudit", "1"]),
])
def test_checkout_without_the_package_exits_2_before_any_import(tool, argv, tmp_path):
    # tmp_path holds no src/crenaudit, and nothing there may be imported or run.
    proc = _run(tool, str(tmp_path), *argv, cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"usage: {USAGES[tool]}\n")
    assert list(tmp_path.iterdir()) == []
