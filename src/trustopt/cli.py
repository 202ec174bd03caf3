"""Command-line harness.

Subcommands::

    trustopt run      --manifest PATH [--out DIR] [--seed N] [--jobs N] [--downsample K]
    trustopt stats    DIR_OR_SUMMARY... [--out DIR] [--alpha A]
    trustopt plot     DIR_OR_TRACE...   [--out DIR] [--log-scale auto|on|off]
    trustopt presets  [NAME]
    trustopt validate (--manifest PATH | --config PATH)

Exit status: 0 on success, 2 on configuration or manifest validation
errors (the message names the offending field or objective), 1 on any
other failure (an unreadable or malformed input, or a binding too large
to allocate).

Importing this module loads no numpy, and only ``run`` imports it, once
its manifest and options have passed validation: ``validate``,
``presets``, ``plot``, ``stats`` and every error exit run on the standard
library alone.  No command imports scipy.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def _lazy(module: str, name: str):
    """``trustopt.<module>.<name>``, imported at the first call: the harness
    loads numpy, and the other modules are needed by one command each.
    The commands call these module-level names, which the benchmark tracer
    (perfbench/tracer.py) patches."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)

    return call


load_manifest = _lazy("manifest", "load_manifest")
run_manifest = _lazy("harness", "run_manifest")
write_stats_reports = _lazy("stats", "write_stats_reports")
write_plots = _lazy("svgchart", "write_plots")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustopt",
        description="Island-model evolutionary optimization with credibility-gated sharing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every cell of an experiment manifest")
    p_run.add_argument("--manifest", required=True, help="manifest JSON path")
    p_run.add_argument("--out", default="results", help="output directory (default: results)")
    p_run.add_argument("--seed", type=int, default=None, help="override the manifest root seed")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--downsample", type=int, default=None, metavar="K",
                       help="record every K-th step in traces")

    p_stats = sub.add_parser("stats", help="nonparametric comparison of summary CSVs")
    p_stats.add_argument("inputs", nargs="+",
                         help="summary CSV files or directories holding summary_*.csv")
    p_stats.add_argument("--out", default=None, help="report directory (default: first input dir)")
    p_stats.add_argument("--alpha", type=float, default=0.01, help="significance level")

    p_plot = sub.add_parser("plot", help="render convergence charts from trace CSVs")
    p_plot.add_argument("inputs", nargs="+",
                        help="trace CSV files or directories holding trace_*.csv")
    p_plot.add_argument("--out", default=None, help="chart directory (default: first input dir)")
    p_plot.add_argument("--log-scale", choices=("auto", "on", "off"), default="auto")

    p_presets = sub.add_parser("presets", help="print the shipped algorithm presets")
    p_presets.add_argument("name", nargs="?", default=None,
                           help="print one preset's JSON instead of the overview")

    p_val = sub.add_parser("validate", help="check a manifest or config file")
    group = p_val.add_mutually_exclusive_group(required=True)
    group.add_argument("--manifest", help="manifest JSON to validate")
    group.add_argument("--config", help="run config JSON to validate")

    return parser


def _expand(inputs, pattern: str) -> list[Path]:
    """Each named file (a directory names its ``pattern`` matches) once, first seen first.
    An input that does not exist is an error, raised before anything is written."""
    paths: dict[Path, Path] = {}
    for item in inputs:
        p = Path(item)
        if not p.exists():
            raise FileNotFoundError(f"no such file or directory: {item}")
        for q in sorted(p.glob(pattern)) if p.is_dir() else [p]:
            paths.setdefault(q.resolve(), q)
    return list(paths.values())


def cmd_run(args) -> int:
    from .config import ConfigError, seed_errors

    manifest = load_manifest(args.manifest)
    if args.jobs < 1:
        raise ConfigError(["--jobs must be >= 1"])
    if args.downsample is not None and args.downsample < 1:
        raise ConfigError(["--downsample must be >= 1"])
    if args.seed is not None and (bad := seed_errors(args.seed)):
        raise ConfigError(bad)
    summaries = run_manifest(manifest, args.out, jobs=args.jobs, seed=args.seed,
                             record_every=args.downsample)
    for p in summaries:
        print(p)
    return 0


def _usage_error(message: str):
    """A ConfigError (exit status 2), imported only on this error path:
    ``stats`` and ``plot`` do not need ``config``."""
    from .config import ConfigError

    return ConfigError([message])


def cmd_stats(args) -> int:
    paths = _expand(args.inputs, "summary_*.csv")
    if not paths:
        raise _usage_error("no summary CSVs found in the given inputs")
    if not (0.0 < args.alpha < 1.0):
        raise _usage_error("--alpha must lie in (0, 1)")
    out = args.out if args.out is not None else paths[0].parent
    for p in write_stats_reports(paths, out, alpha=args.alpha):
        print(p)
    return 0


def cmd_plot(args) -> int:
    paths = _expand(args.inputs, "trace_*.csv")
    if not paths:
        raise _usage_error("no trace CSVs found in the given inputs")
    out = args.out if args.out is not None else paths[0].parent
    for p in write_plots(paths, out, log_scale=args.log_scale):
        print(p)
    return 0


def cmd_presets(args) -> int:
    from .config import ConfigError
    from .presets import DISPLAY_NAMES, PRESET_NAMES, load_preset, preset_json

    if args.name is not None:
        try:
            print(preset_json(args.name), end="")
        except KeyError as err:
            raise ConfigError([str(err.args[0])]) from err
        return 0
    header = (f"{'preset':<20} {'N':>3} {'epoch':>6} {'credibility':>12} "
              f"{'start':>6} {'intensity':>10} {'gene_op':>8} {'d_f':>5}")
    print(header)
    for slug in PRESET_NAMES:
        cfg = load_preset(slug)
        tpl = cfg.per_agent
        if cfg.credibility is None:
            kind, start = "-", "-"
        else:
            kind, start = cfg.credibility.kind, str(cfg.credibility.start_value)
        intensity = tpl.genome_intensity if cfg.algorithm == "tbo" else "-"
        gene_op = tpl.gene_op if cfg.algorithm == "tbo" else "-"
        print(f"{slug:<20} {cfg.agent_count:>3} {cfg.epoch_length:>6} {kind:>12} "
              f"{start:>6} {intensity:>10} {gene_op:>8} {cfg.diversity_factor:>5g}")
        print(f"  ({DISPLAY_NAMES[slug]})")
    return 0


def cmd_validate(args) -> int:
    if args.manifest:
        load_manifest(args.manifest)
        print(f"manifest ok: {args.manifest}")
    else:
        from .config import load_config

        load_config(args.config)
        print(f"config ok: {args.config}")
    return 0


_HANDLERS = {
    "run": cmd_run,
    "stats": cmd_stats,
    "plot": cmd_plot,
    "presets": cmd_presets,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError, MemoryError) as err:
        from .config import ConfigError  # a ValueError

        if isinstance(err, ConfigError):
            for v in err.violations:
                print(f"error: {v}", file=sys.stderr)
            return 2
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
