"""The benchmark's workloads and the manifests generated from a seed.

Each workload is one experiment manifest as a researcher would write it,
plus the ``--jobs`` value ``trustopt run`` gets.  Only the manifest root
seed depends on the benchmark seed; problems, presets and step budgets are
fixed per workload so that every run does the same amount of work.

Why each workload exists (see README.md for the layer map):

* ``desk_trace`` -- the bundled desk grid (6 presets x 6 objectives at
  D=10/12) with full traces (``record_every`` left at its default of 1).
  Small genomes make the per-step Python overhead of engine/ea/socio
  dominate; full traces make trace-CSV writes (inside ``run``) and reads
  (inside ``plot``) visible.
* ``highdim_jobs2`` -- D~50 traffic on sphere, lennard_jones and
  schwefel_noise under ``--jobs 2``.  Objective evaluation and EA draws
  dominate; it is the only workload that uses the process pool, and the
  slow Lennard-Jones cells expose load imbalance.
* ``exchange_epoch2`` -- the five credibility-gated presets on sphere and
  rastrigin at D=50 with an exchange every second step, so the epoch
  exchange path dominates.  A change to the exchange shows here and barely
  on ``highdim_jobs2``; a change to EA draws shows the other way round.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

ALL_PRESETS = ("strong_leadership", "exploration", "small_society",
               "large_society", "high_diversity", "island_model")
TBO_PRESETS = ALL_PRESETS[:5]


@dataclass(frozen=True)
class Workload:
    name: str
    algorithms: tuple[str, ...]
    # (objective, dimension) pairs; every problem gets the same step budget
    problems: tuple[tuple[str, int], ...]
    max_steps: int
    repetitions: int
    jobs: int
    record_every: int | None = None  # None keeps the manifest default (1)
    overrides: dict = field(default_factory=dict)

    @property
    def cells(self) -> int:
        return len(self.problems) * len(self.algorithms)

    @property
    def society_steps(self) -> int:
        """Global society steps one ``trustopt run`` executes."""
        return self.cells * self.repetitions * self.max_steps

    def manifest(self, seed: int) -> dict:
        """The manifest for benchmark seed ``seed`` (same seed, same bytes)."""
        digest = hashlib.sha256(f"{self.name}:{seed}".encode()).digest()
        data = {
            "name": self.name,
            "seed": int.from_bytes(digest[:8], "little") >> 1,
            "repetitions": self.repetitions,
            "algorithms": list(self.algorithms),
            "problems": [{"objective": o, "dimension": d, "max_steps": self.max_steps}
                         for o, d in self.problems],
        }
        if self.record_every is not None:
            data["record_every"] = self.record_every
        if self.overrides:
            data["overrides"] = dict(self.overrides)
        return data

    def write_manifest(self, seed: int, path: Path) -> Path:
        path.write_text(json.dumps(self.manifest(seed), indent=1) + "\n", encoding="utf-8")
        return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_trace",
            algorithms=ALL_PRESETS,
            problems=(("sphere", 10), ("griewank", 10), ("rastrigin", 10),
                      ("expanded_schaffer", 10), ("schwefel_noise", 10),
                      ("lennard_jones", 12)),
            max_steps=50,
            repetitions=2,
            jobs=1,
        ),
        Workload(
            name="highdim_jobs2",
            algorithms=ALL_PRESETS,
            problems=(("sphere", 50), ("lennard_jones", 48), ("schwefel_noise", 50)),
            max_steps=150,
            repetitions=1,
            jobs=2,
            record_every=100,
        ),
        Workload(
            name="exchange_epoch2",
            algorithms=TBO_PRESETS,
            problems=(("sphere", 50), ("rastrigin", 50)),
            max_steps=80,
            repetitions=1,
            jobs=1,
            record_every=100,
            overrides={"epoch_length": 2},
        ),
    )
}
