"""Minimal SVG 1.1 line charts for convergence curves, and the charts of a
run's trace CSVs.

No plotting dependency: the document is assembled as a list of strings and
every coordinate is formatted to two decimals, so identical inputs yield
identical bytes.  The canvas is a fixed 960x540 viewBox.  The y axis uses
a log scale when every plotted value is positive (decade ticks); otherwise
it falls back to linear and says so in the subtitle.  Nothing here imports
numpy, so ``trustopt plot`` starts without it.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence, Union

from .results import best_so_far_series, mean_curve, parse_trace_filename, read_trace_csv

__all__ = ["PALETTE", "display_color", "render_convergence_svg", "write_plots"]

WIDTH, HEIGHT = 960, 540
PLOT = (80.0, 60.0, 760.0, 480.0)  # x0, y0, x1, y1 in SVG coordinates

# one fixed colour per shipped algorithm: blue, green, magenta, red,
# yellow, cyan (darkened for legibility on white); the keys are the presets
# in their legend order
PALETTE = {
    "strong_leadership": "#1f4fc4",  # blue
    "exploration": "#2e8b2e",        # green
    "small_society": "#c02590",      # magenta
    "large_society": "#d62728",      # red
    "high_diversity": "#c9a010",     # yellow
    "island_model": "#0f9bb0",       # cyan
}
_EXTRA = ("#555555", "#8b5a2b", "#708090", "#4b0082")


def display_color(label: str, fallback_index: int = 0) -> str:
    return PALETTE.get(label, _EXTRA[fallback_index % len(_EXTRA)])


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _f(v: float) -> str:
    return f"{v:.2f}"


def _nice_step(span: float) -> float:
    """A 1/2/5 grid step giving roughly five intervals."""
    if span <= 0:
        return 1.0
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.0e}".replace("e-0", "e-").replace("e+0", "e+")
    if v == int(v):
        return str(int(v))
    return f"{v:g}"


def render_convergence_svg(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    subtitle: str = "",
    log_scale: str = "auto",
) -> str:
    """Render labelled (steps, values) curves to an SVG document string.

    ``log_scale`` is "auto", "on" or "off"; "on" with non-positive values
    is an error.  Series colours follow :data:`PALETTE` by label, extras
    cycle through neutral tones.
    """
    if log_scale not in ("auto", "on", "off"):
        raise ValueError("log_scale must be 'auto', 'on' or 'off'")
    if not series:
        raise ValueError("nothing to plot")
    all_y = [float(v) for _, _, ys in series for v in ys]
    all_x = [float(v) for _, xs, _ in series for v in xs]
    if not all_y:
        raise ValueError("series are empty")
    positive = min(all_y) > 0.0
    if log_scale == "on" and not positive:
        raise ValueError("log scale requested but values include non-positives")
    use_log = positive if log_scale == "auto" else (log_scale == "on")
    note = subtitle
    if log_scale == "auto" and not use_log:
        note = (note + "; " if note else "") + "linear scale (non-positive values)"

    x_lo, x_hi = min(all_x), max(all_x)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if use_log:
        k_lo = math.floor(math.log10(min(all_y)))
        k_hi = math.ceil(math.log10(max(all_y)))
        if k_hi == k_lo:
            k_hi += 1
        y_lo, y_hi = float(k_lo), float(k_hi)
        y_ticks = [(float(k), _fmt_tick(10.0 ** k)) for k in range(k_lo, k_hi + 1)]
        to_y = lambda v: math.log10(v)
    else:
        y_lo, y_hi = min(all_y), max(all_y)
        if y_hi == y_lo:
            pad = 1.0 if y_hi == 0 else abs(y_hi) * 0.1
            y_lo, y_hi = y_lo - pad, y_hi + pad
        y_ticks = [(v, _fmt_tick(v)) for v in _linear_ticks(y_lo, y_hi)]
        to_y = lambda v: v

    px0, py0, px1, py1 = PLOT

    def sx(v: float) -> float:
        return px0 + (v - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v: float) -> float:
        return py1 - (to_y(v) - y_lo) / (y_hi - y_lo) * (py1 - py0)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="Helvetica, Arial, sans-serif">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="30" font-size="18" text-anchor="middle">{_esc(title)}</text>',
    ]
    if note:
        out.append(f'<text x="{WIDTH // 2}" y="48" font-size="12" fill="#666666" '
                   f'text-anchor="middle">{_esc(note)}</text>')

    # frame and grid
    out.append(f'<rect x="{_f(px0)}" y="{_f(py0)}" width="{_f(px1 - px0)}" '
               f'height="{_f(py1 - py0)}" fill="none" stroke="#333333" stroke-width="1"/>')
    for v, label in y_ticks:
        y = py1 - (v - y_lo) / (y_hi - y_lo) * (py1 - py0)
        out.append(f'<line x1="{_f(px0)}" y1="{_f(y)}" x2="{_f(px1)}" y2="{_f(y)}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_f(px0 - 8)}" y="{_f(y + 4)}" font-size="11" '
                   f'text-anchor="end">{_esc(label)}</text>')
    for v in _linear_ticks(x_lo, x_hi):
        x = sx(v)
        out.append(f'<line x1="{_f(x)}" y1="{_f(py1)}" x2="{_f(x)}" y2="{_f(py1 + 5)}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{_f(x)}" y="{_f(py1 + 18)}" font-size="11" '
                   f'text-anchor="middle">{_esc(_fmt_tick(v))}</text>')
    out.append(f'<text x="{_f((px0 + px1) / 2)}" y="{HEIGHT - 8}" font-size="12" '
               f'text-anchor="middle">step</text>')
    out.append(f'<text x="18" y="{_f((py0 + py1) / 2)}" font-size="12" text-anchor="middle" '
               f'transform="rotate(-90 18 {_f((py0 + py1) / 2)})">best so far</text>')

    # curves
    for idx, (label, xs, ys) in enumerate(series):
        color = display_color(label, idx)
        pts = " ".join(f"{_f(sx(float(x)))},{_f(sy(float(y)))}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    # legend
    lx, ly = px1 + 16, py0 + 10
    for idx, (label, _, _) in enumerate(series):
        color = display_color(label, idx)
        y = ly + idx * 20
        out.append(f'<line x1="{_f(lx)}" y1="{_f(y)}" x2="{_f(lx + 24)}" y2="{_f(y)}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_f(lx + 30)}" y="{_f(y + 4)}" font-size="12">{_esc(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _algorithm_order(names) -> list[str]:
    known = [n for n in PALETTE if n in names]
    extra = sorted(n for n in names if n not in PALETTE)
    return known + extra


def write_plots(
    trace_paths: Sequence[Union[str, Path]],
    out_dir: Union[str, Path],
    log_scale: str = "auto",
) -> list[Path]:
    """Render one convergence chart per (problem, dimension).

    Each algorithm contributes one curve: the best-so-far series averaged
    over its repetitions (grids must agree across repetitions).
    """
    cells: dict[tuple[str, int], dict[str, list]] = {}
    for path in trace_paths:
        meta = parse_trace_filename(path)
        data = read_trace_csv(path)
        steps, curve = best_so_far_series(data["step"], data["best"])
        cell = cells.setdefault((meta["problem"], meta["dim"]), {})
        cell.setdefault(meta["algorithm"], []).append((meta["rep"], steps, curve))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for (problem, dim) in sorted(cells):
        per_algo = cells[(problem, dim)]
        series = []
        for algorithm in _algorithm_order(per_algo):
            reps = sorted(per_algo[algorithm], key=lambda item: item[0])
            grid = reps[0][1]
            for _, steps, _ in reps[1:]:
                if steps != grid:
                    raise ValueError(
                        f"trace grids differ across repetitions for {problem} d={dim} {algorithm}"
                    )
            series.append((algorithm, grid.tolist(), mean_curve([c for _, _, c in reps])))
        svg = render_convergence_svg(series, f"{problem} (D={dim})",
                                     subtitle="best so far, mean over repetitions",
                                     log_scale=log_scale)
        p = out / f"convergence_{problem}_d{dim}.svg"
        p.write_text(svg, encoding="utf-8")
        written.append(p)
    return written
