"""The demos run end to end as scripts and leave no temporary files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trustopt

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["benchmark_values", "single_run", "watch_interactions",
                                  "compare_two", "manifest_pipeline"])
def test_demo_runs(name, tmp_path):
    temp = tmp_path / "tmp"
    temp.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(trustopt.__file__).parent.parent),
           "TMPDIR": str(temp)}
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert not any(temp.iterdir())
