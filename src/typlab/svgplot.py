"""Static SVG rendering of run results.

One main panel shows the individual trajectories (gray), their ensemble
mean (bold), and an inset with the sample variance against the analytic
bound (horizontal line).  The output is plain hand-assembled SVG with
fixed coordinate formatting, so identical inputs give identical bytes.
"""
from __future__ import annotations

import numpy as np

WIDTH = 880.0
HEIGHT = 560.0
MARGIN_LEFT = 72.0
MARGIN_RIGHT = 24.0
MARGIN_TOP = 28.0
MARGIN_BOTTOM = 52.0

TRAJECTORY_STYLE = 'fill="none" stroke="#b3b3b3" stroke-width="1"'
MEAN_STYLE = 'fill="none" stroke="#000000" stroke-width="2.5"'
VARIANCE_STYLE = 'fill="none" stroke="#2166ac" stroke-width="1.5"'
BOUND_STYLE = 'stroke="#b2182b" stroke-width="1.5" stroke-dasharray="6,3"'
AXIS_STYLE = 'stroke="#000000" stroke-width="1"'
FONT = 'font-family="sans-serif" font-size="12"'
TICK_COUNT = 5


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float) -> np.ndarray:
    raw_step = (hi - lo) / (TICK_COUNT - 1)
    if not raw_step > 0:  # an empty span, or one so narrow that its step underflows
        return np.array([lo])
    power = 10.0 ** np.floor(np.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * power
        if step >= raw_step * 0.999:
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    return ticks[(ticks >= lo - 1e-12) & (ticks <= hi + 1e-12)]


class _Axes:
    """Linear data-to-pixel mapping for one rectangular plot area."""

    def __init__(self, x0, y0, width, height, xlim, ylim):
        self.x0, self.y0, self.width, self.height = x0, y0, width, height
        self.xlim, self.ylim = xlim, ylim

    def px(self, x):
        frac = (np.asarray(x) - self.xlim[0]) / (self.xlim[1] - self.xlim[0])
        return self.x0 + frac * self.width

    def py(self, y):
        frac = (np.asarray(y) - self.ylim[0]) / (self.ylim[1] - self.ylim[0])
        return self.y0 + self.height - frac * self.height

    def polyline(self, x, y, style) -> str:
        points = " ".join(map("{:.2f},{:.2f}".format, self.px(x).tolist(), self.py(y).tolist()))
        return f'<polyline {style} points="{points}"/>'

    def frame(self) -> str:
        return (
            f'<rect x="{_fmt(self.x0)}" y="{_fmt(self.y0)}" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" fill="none" {AXIS_STYLE}/>'
        )

    def tick_marks(self) -> list[str]:
        parts = []
        for tx in _ticks(*self.xlim):
            px = float(self.px(tx))
            y1 = self.y0 + self.height
            parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y1)}" x2="{_fmt(px)}" y2="{_fmt(y1 + 5)}" {AXIS_STYLE}/>')
            parts.append(
                f'<text x="{_fmt(px)}" y="{_fmt(y1 + 18)}" text-anchor="middle" {FONT}>{tx:g}</text>'
            )
        for ty in _ticks(*self.ylim):
            py = float(self.py(ty))
            parts.append(f'<line x1="{_fmt(self.x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(self.x0)}" y2="{_fmt(py)}" {AXIS_STYLE}/>')
            parts.append(
                f'<text x="{_fmt(self.x0 - 8)}" y="{_fmt(py + 4)}" text-anchor="end" {FONT}>{ty:g}</text>'
            )
        return parts


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        return lo - 0.5, lo + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_figure(
    stats: dict[str, np.ndarray],
    trajectories: tuple[np.ndarray, np.ndarray] | None = None,
) -> str:
    """Render stats (and optional per-trajectory series) as an SVG string."""
    times = stats["t"]
    mean = stats["mean"]
    variance = stats["variance"]
    bound = float(stats["bound"][0])

    ylo, yhi = float(mean.min()), float(mean.max())
    if trajectories is not None:
        traj_values = trajectories[1]
        ylo = min(ylo, float(traj_values.min()))
        yhi = max(yhi, float(traj_values.max()))

    main = _Axes(
        MARGIN_LEFT,
        MARGIN_TOP,
        WIDTH - MARGIN_LEFT - MARGIN_RIGHT,
        HEIGHT - MARGIN_TOP - MARGIN_BOTTOM,
        (float(times[0]), float(times[-1])),
        _padded(ylo, yhi),
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" height="{HEIGHT:g}" '
        f'viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        f'<rect x="0" y="0" width="{WIDTH:g}" height="{HEIGHT:g}" fill="#ffffff"/>',
    ]

    if trajectories is not None:
        traj_times, traj_values = trajectories
        for row in traj_values:
            parts.append(main.polyline(traj_times, row, TRAJECTORY_STYLE))
    parts.append(main.polyline(times, mean, MEAN_STYLE))
    parts.append(main.frame())
    parts.extend(main.tick_marks())
    parts.append(
        f'<text x="{_fmt(MARGIN_LEFT + main.width / 2)}" y="{_fmt(HEIGHT - 14)}" '
        f'text-anchor="middle" {FONT}>t</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(MARGIN_TOP + main.height / 2)}" text-anchor="middle" '
        f'{FONT} transform="rotate(-90 16 {_fmt(MARGIN_TOP + main.height / 2)})">'
        "expectation value</text>"
    )

    inset = _Axes(
        main.x0 + 0.58 * main.width,
        main.y0 + 0.06 * main.height,
        0.38 * main.width,
        0.30 * main.height,
        (float(times[0]), float(times[-1])),
        (0.0, 1.15 * max(bound, float(variance.max()), 1e-300)),
    )
    parts.append(
        f'<rect x="{_fmt(inset.x0)}" y="{_fmt(inset.y0)}" width="{_fmt(inset.width)}" '
        f'height="{_fmt(inset.height)}" fill="#ffffff"/>'
    )
    parts.append(inset.polyline(times, variance, VARIANCE_STYLE))
    by = float(inset.py(bound))
    parts.append(
        f'<line x1="{_fmt(inset.x0)}" y1="{_fmt(by)}" x2="{_fmt(inset.x0 + inset.width)}" '
        f'y2="{_fmt(by)}" {BOUND_STYLE}/>'
    )
    parts.append(inset.frame())
    parts.append(
        f'<text x="{_fmt(inset.x0 + 4)}" y="{_fmt(inset.y0 + 14)}" {FONT}>'
        "variance vs. bound</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
