"""The benchmark tracer's patch targets exist.

``perfbench/tracer.py`` replaces package functions by name (for example
``trustopt.engine.interaction_step``), so deleting or renaming one breaks
every traced benchmark run.  This test builds each target set and installs
it, without running anything under it.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_can_be_installed_and_restored():
    tracer = _load_tracer()
    t = tracer.Tracer()
    target_sets = [tracer.full_targets(t), tracer.cell_targets(t, 1), tracer.cell_targets(t, 2),
                   tracer.count_targets(t)]
    for targets in target_sets:
        originals = [getattr(owner, attr) for owner, attr, _ in targets]
        with tracer.installed(targets):
            for owner, attr, replacement in targets:
                assert getattr(owner, attr) is replacement
        assert [getattr(owner, attr) for owner, attr, _ in targets] == originals
