"""The demos and the README's library quick start run end to end as
scripts and leave no temporary files."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trustopt

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _run_script(script, tmp_path):
    temp = tmp_path / "tmp"
    temp.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(trustopt.__file__).parent.parent),
           "TMPDIR": str(temp)}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert not any(temp.iterdir())


@pytest.mark.parametrize("name", ["benchmark_values", "single_run", "watch_interactions",
                                  "compare_two", "manifest_pipeline"])
def test_demo_runs(name, tmp_path):
    _run_script(DEMOS / f"{name}.py", tmp_path)


def test_readme_library_snippet_runs(tmp_path):
    # the first python block of the README is the library quick start
    snippet = re.search(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.M | re.S).group(1)
    script = tmp_path / "quick_start.py"
    script.write_text(snippet)
    _run_script(script, tmp_path)
