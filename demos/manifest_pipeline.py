"""The batch pipeline end to end: manifest -> runs -> stats -> charts.

A manifest JSON names problems, algorithm presets, a repetition count and
a root seed; every (problem, algorithm) cell derives its own seed from
those labels, so adding or reordering cells never changes the others.
The same pipeline is reachable from the command line:

    trustopt run --manifest demo_manifest.json --out results
    trustopt stats results
    trustopt plot results
"""

import json
import tempfile
from pathlib import Path

from trustopt import load_manifest, run_manifest, write_plots, write_stats_reports

manifest_data = {
    "name": "demo",
    "seed": 20260825,
    "repetitions": 6,
    "record_every": 20,
    "algorithms": ["strong_leadership", "small_society", "island_model"],
    "problems": [
        {"objective": "sphere", "dimension": 5, "max_steps": 600},
        {"objective": "griewank", "dimension": 5, "max_steps": 600},
    ],
    # shrink the societies a little so the demo stays quick
    "overrides": {"offspring_size": 10},
}

# everything is written to a temporary directory, removed at the end
with tempfile.TemporaryDirectory(prefix="trustopt_demo_") as tmp:
    work = Path(tmp)
    manifest_path = work / "demo_manifest.json"
    manifest_path.write_text(json.dumps(manifest_data, indent=2))

    manifest = load_manifest(manifest_path)
    out = work / "results"

    print(f"running {len(manifest.problems)} problems x {len(manifest.algorithms)} "
          f"algorithms x {manifest.repetitions} repetitions ...")
    summaries = run_manifest(manifest, out)
    write_stats_reports(summaries, out, alpha=0.05)
    write_plots(sorted(out.glob("trace_*.csv")), out)

    print(f"\neverything under {out}:")
    for p in sorted(out.iterdir()):
        print(f"  {p.name:<56} {p.stat().st_size:>8} bytes")

    print("\nthe significance report:")
    print((out / "stats_report.txt").read_text())
