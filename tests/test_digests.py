"""Same seed, same bytes: the pipeline's files for the committed manifest
against the digests committed with it (``tests/data/digests.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "digests", Path(__file__).parent / "data" / "digests.py")
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def test_pipeline_bytes_match_the_committed_digests(tmp_path):
    recorded = json.loads(digests.DIGESTS.read_text())
    here = digests.environment()
    if recorded["environment"] != here:
        pytest.skip(f"the digests were recorded on {recorded['environment']}; this is {here}, "
                    "where libm or numpy's SIMD paths may round differently")
    got = digests.pipeline(tmp_path)
    for section in digests.SECTIONS:
        want = recorded[section]
        assert got[section].keys() == want.keys(), section
        changed = sorted(name for name in want if got[section][name] != want[name])
        assert not changed, (section, changed)
