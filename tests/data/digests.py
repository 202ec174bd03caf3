"""The sha256 of every file the pipeline writes for ``digest_manifest.json``.

``digests.json`` holds one digest per file of ``trustopt run --jobs 1``,
``run --jobs 2``, ``stats`` and ``plot`` (both on the first run), and the
environment they were recorded on: the bytes depend on libm and on
numpy's SIMD paths.  ``tests/test_digests.py`` compares a fresh pipeline
with them.  Regenerate them, from the root of a checkout, with::

    PYTHONPATH=src python3 tests/data/digests.py [--only SECTION ...]

``--only`` rewrites the named sections and keeps the others, which must
have been recorded on the same environment.  A change that moves these
bytes on purpose regenerates the sections it moves and says which files
changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "digest_manifest.json"
DIGESTS = HERE / "digests.json"
SECTIONS = ("run --jobs 1", "run --jobs 2", "stats", "plot")


def environment() -> dict[str, str]:
    import numpy

    return {"machine": platform.machine(), "libc": " ".join(platform.libc_ver()),
            "python": platform.python_version(), "numpy": numpy.__version__}


def pipeline(out: Path) -> dict[str, dict[str, str]]:
    """Run the four commands into ``out`` and hash what each wrote."""
    from trustopt.cli import main

    commands = {
        "run --jobs 1": ["run", "--manifest", MANIFEST, "--out", out / "run1", "--jobs", 1],
        "run --jobs 2": ["run", "--manifest", MANIFEST, "--out", out / "run2", "--jobs", 2],
        "stats": ["stats", out / "run1", "--out", out / "stats"],
        "plot": ["plot", out / "run1", "--out", out / "plot"],
    }
    hashes = {}
    for section, argv in commands.items():
        with contextlib.redirect_stdout(io.StringIO()):
            if main([str(a) for a in argv]) != 0:
                raise RuntimeError(f"trustopt {section} failed")
        folder = Path(argv[argv.index("--out") + 1])
        hashes[section] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in sorted(folder.iterdir())}
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=SECTIONS, default=list(SECTIONS))
    args = parser.parse_args(argv)
    env = environment()
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if set(args.only) != set(SECTIONS) and old.get("environment") != env:
        raise SystemExit(f"the kept sections were recorded on {old.get('environment')}, "
                         f"not on {env}: regenerate every section")
    with tempfile.TemporaryDirectory() as tmp:
        fresh = pipeline(Path(tmp))
    record = {"environment": env}
    for section in SECTIONS:
        record[section] = fresh[section] if section in args.only else old[section]
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
