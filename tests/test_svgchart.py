"""Dependency-free SVG chart rendering."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import best_so_far_reference, mean_curve_reference

import trustopt
from trustopt import PRESET_NAMES
from trustopt.svgchart import PALETTE, display_color, render_convergence_svg, write_plots


def _one_series():
    return [("island_model", [0, 10, 20], [100.0, 10.0, 1.0])]


def test_render_emits_one_polyline_per_series():
    svg = render_convergence_svg(_one_series(), "title")
    assert svg.count("<polyline") == 1
    three = _one_series() + [
        ("exploration", [0, 10], [50.0, 5.0]),
        ("custom", [0, 10], [70.0, 7.0]),
    ]
    svg = render_convergence_svg(three, "title")
    assert svg.count("<polyline") == 3


def test_render_legend_carries_labels_and_palette_colors():
    svg = render_convergence_svg(
        _one_series() + [("strong_leadership", [0, 10], [2.0, 1.0])], "t")
    assert ">island_model</text>" in svg
    assert ">strong_leadership</text>" in svg
    assert PALETTE["island_model"] in svg
    assert PALETTE["strong_leadership"] in svg


def test_unknown_labels_get_fallback_colors():
    assert display_color("island_model") == PALETTE["island_model"]
    a = display_color("mystery", 0)
    b = display_color("mystery", 1)
    assert a != b
    assert a.startswith("#")


def test_positive_values_get_log_decade_ticks():
    svg = render_convergence_svg(_one_series(), "t")
    for tick in (">100</text>", ">10</text>", ">1</text>"):
        assert tick in svg
    assert "linear scale" not in svg


def test_nonpositive_values_fall_back_to_linear_with_note():
    series = [("a", [0, 1, 2], [5.0, 0.0, -2.0])]
    svg = render_convergence_svg(series, "t")
    assert "linear scale (non-positive values)" in svg


def test_forced_log_scale_rejects_nonpositive_values():
    series = [("a", [0, 1], [1.0, -1.0])]
    with pytest.raises(ValueError, match="non-positive"):
        render_convergence_svg(series, "t", log_scale="on")
    # forcing linear on positive data is allowed
    svg = render_convergence_svg(_one_series(), "t", log_scale="off")
    assert "linear scale (non-positive values)" not in svg


@pytest.mark.parametrize("values,log_scale", [
    ([-5.0, -5.000000000000001], "auto"),  # non-positive: falls back to linear
    ([5.0, 5.000000000000001], "off"),
])
def test_linear_axis_over_a_sub_ulp_span_terminates(values, log_scale):
    # the two values differ by one ulp, so a fifth of their span is lost
    # when added to a tick; the tick loop must still end
    code = ("import sys\n"
            "from trustopt.svgchart import render_convergence_svg\n"
            f"svg = render_convergence_svg([('a', [1, 2], {values!r})], 't', "
            f"log_scale={log_scale!r})\n"
            "sys.stdout.write(svg)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(trustopt.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("<polyline") == 1 and proc.stdout.endswith("</svg>\n")


def test_render_validates_inputs():
    with pytest.raises(ValueError):
        render_convergence_svg([], "t")
    with pytest.raises(ValueError):
        render_convergence_svg(_one_series(), "t", log_scale="maybe")


def test_render_is_deterministic():
    a = render_convergence_svg(_one_series(), "t", subtitle="s")
    b = render_convergence_svg(_one_series(), "t", subtitle="s")
    assert a == b


def test_title_and_labels_are_escaped():
    svg = render_convergence_svg([("a<b", [0, 1], [1.0, 2.0])],
                                 "x < y & z", subtitle="p>q")
    assert "x &lt; y &amp; z" in svg
    assert "a&lt;b" in svg
    assert "p&gt;q" in svg
    assert "x < y" not in svg


def test_document_shape():
    svg = render_convergence_svg(_one_series(), "t")
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert 'viewBox="0 0 960 540"' in svg
    assert ">step</text>" in svg
    assert ">best so far</text>" in svg


def test_palette_lists_the_presets_in_legend_order():
    # write_plots orders a chart's curves by PALETTE without importing presets
    assert tuple(PALETTE) == PRESET_NAMES


def test_write_plots_matches_the_numpy_reference_chart(tmp_path):
    # per algorithm: the numpy best-so-far curve of each repetition, their
    # numpy mean, presets in PALETTE order and other labels sorted after them
    rng = np.random.default_rng(31)
    grid = np.repeat([1, 4, 9, 10], 3)  # three agents per recorded step
    series = []
    for algorithm in ("island_model", "zeta", "exploration", "alpha"):
        curves = []
        for rep in range(3):
            best = rng.lognormal(0.0, 3.0, grid.size)
            lines = ["step,agent_id,best,mean"] + [
                f"{s},{k % 3},{b!r},{b!r}" for k, (s, b) in enumerate(zip(grid, best.tolist()))]
            (tmp_path / f"trace_sphere_d4_{algorithm}_rep{rep}.csv").write_text(
                "\n".join(lines) + "\n")
            steps, curve = best_so_far_reference(grid, best)
            curves.append(curve)
        series.append((algorithm, steps.tolist(), mean_curve_reference(curves).tolist()))
    order = ["exploration", "island_model", "alpha", "zeta"]
    series.sort(key=lambda item: order.index(item[0]))
    [path] = write_plots(sorted(tmp_path.glob("trace_*.csv")), tmp_path / "out")
    assert path.read_text() == render_convergence_svg(
        series, "sphere (D=4)", subtitle="best so far, mean over repetitions")
