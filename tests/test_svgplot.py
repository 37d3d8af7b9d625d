import xml.dom.minidom

import numpy as np
import pytest

from typlab.svgplot import _Axes, render_figure


@pytest.fixture
def stats():
    times = np.linspace(0.0, 10.0, 30)
    return {
        "t": times,
        "mean": 0.2 * np.exp(-times / 4),
        "variance": 1e-3 * (1 + 0.2 * np.sin(times)),
        "bound": np.full(30, 2.4e-3),
    }


def test_svg_is_wellformed_xml(stats):
    svg = render_figure(stats)
    xml.dom.minidom.parseString(svg)


def test_mean_and_inset_without_trajectories(stats):
    svg = render_figure(stats)
    assert svg.count("<polyline") == 2  # mean + variance inset
    assert "stroke-dasharray" in svg  # the bound line


def test_trajectories_rendered_in_gray(stats):
    trajectories = (stats["t"], np.vstack([stats["mean"] * s for s in (0.8, 1.0, 1.2)]))
    svg = render_figure(stats, trajectories)
    assert svg.count("<polyline") == 5  # 3 trajectories + mean + variance
    assert svg.count("#b3b3b3") == 3


def test_deterministic_output(stats):
    trajectories = (stats["t"], np.vstack([stats["mean"], stats["mean"] * 0.5]))
    assert render_figure(stats, trajectories) == render_figure(stats, trajectories)


def test_polyline_points_match_per_point_formatting():
    # One format call per point gives the bytes of formatting each
    # coordinate alone, -0.00 for values just below zero included.
    axes = _Axes(0.0, 0.0, 1.0, 1.0, (0.0, 1.0), (0.0, 1.0))
    x = np.array([-0.004, -0.0, 0.0, 0.005, 0.015, 1.005, 2.675, -3.14159, 1e6 + 0.125])
    y = 1.0 - np.array([0.004999, -0.001, 1.0, 123.456, -7.777, 0.125, 0.135, 9.995, -2e5])
    reference = " ".join(f"{px:.2f},{py:.2f}" for px, py in zip(axes.px(x), axes.py(y)))
    assert "-0.00" in reference
    assert axes.polyline(x, y, "s") == f'<polyline s points="{reference}"/>'
