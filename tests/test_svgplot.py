from __future__ import annotations

import hashlib
import re
import signal

import pytest

from cvslab.svgplot import render_line_chart


def test_one_polyline_per_curve():
    svg = render_line_chart([("a", [0.0, 1.0, 2.0]), ("b", [2.0, 1.0, 0.0])])
    assert svg.count("<polyline") == 2
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_constant_curve_keeps_constant_y():
    svg = render_line_chart([("flat", [3.0, 3.0, 3.0, 3.0])])
    points = re.search(r'points="([^"]+)"', svg).group(1)
    ys = {pair.split(",")[1] for pair in points.split()}
    assert len(ys) == 1


def test_labels_and_title_are_escaped():
    svg = render_line_chart([("a<b&c", [1.0, 2.0])], title="x > y")
    assert "a&lt;b&amp;c" in svg
    assert "x &gt; y" in svg
    assert "a<b&c" not in svg


def test_no_external_references():
    svg = render_line_chart([("a", [0.0, 1.0])], title="t")
    assert "href" not in svg
    assert "<image" not in svg
    assert "url(" not in svg
    assert "@import" not in svg


def test_rejects_empty_input():
    with pytest.raises(ValueError):
        render_line_chart([])
    with pytest.raises(ValueError):
        render_line_chart([("a", [])])


def test_single_point_curve_renders():
    svg = render_line_chart([("dot", [5.0])])
    assert svg.count("<polyline") == 1


def test_output_is_deterministic():
    curves = [("a", [0.1, 0.7, 0.3]), ("b", [-1.0, 0.0, 1.0])]
    assert render_line_chart(curves) == render_line_chart(curves)


PINNED_CHARTS = {
    "titled two curves": (
        [("cvs", [0.0, 1.5, 0.75, 2.0]), ("qlearning", [1.0, 0.5, 1.25, 1.0])],
        {"title": "fig3: h from tree"},
        "a909bc09610393393758972ab6d3ebdfa2cea5ae0a6f1ac79db35d339c0622f1",
    ),
    "escaped labels": (
        [("a<b&c", [3.0, 1.0, 4.0, 1.0, 5.0])],
        {"title": "x > y & z", "x_label": "step <t>", "y_label": "R & G"},
        "a70bfe1d3a9ff191eb6e688ebbbf3eae2f9fb32967a6dc36f1c64257523d5574",
    ),
    "one point and flat, untitled": (
        [("dot", [5.0]), ("flat", [2.0, 2.0, 2.0])],
        {},
        "9ee23c84e6c35f22c43a4e30de20bcc0f2e6f2458fa1009ebbaa28b1a2012b31",
    ),
    "negative and 1e12": (
        [("neg", [-3.5, -1e12, 0.25]), ("big", [1e12, 2.5e11, -7.0])],
        {"title": "wide"},
        "c9e1bccca7bb342503b63d0767e54c955688df945c2ee8104be2c629a31b69a1",
    ),
    "seven curves": (
        [(f"c{i}", [float((i * j) % 7) - 3.0 for j in range(12)]) for i in range(7)],
        {"x_label": "run", "y_label": "mean return"},
        "a58d7c3fd7780db3dacb88c321b20f588a59cf13d9341640c2d52d339ed0683a",
    ),
}


def test_render_line_chart_output_is_pinned():
    """The exact bytes of a few charts, so a rewrite of the renderer that
    moves one attribute, digit or newline shows here."""
    got = {
        name: hashlib.sha256(render_line_chart(curves, **kw).encode("utf-8")).hexdigest()
        for name, (curves, kw, _) in PINNED_CHARTS.items()
    }
    assert got == {name: digest for name, (_, _, digest) in PINNED_CHARTS.items()}


def render_within_a_second(curves):
    """``render_line_chart(curves)``, raising ``TimeoutError`` where it would
    spin past a second."""

    def expire(signum, frame):
        raise TimeoutError("render_line_chart did not finish")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return render_line_chart(curves)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "ys",
    [
        [0.0, 5e-324],  # the range underflows
        [0.3, 0.30000000000000004],  # one ulp apart: ticks a tiny step apart never advanced
        [1e20, 1e20],  # flat, too large to widen by 1
    ],
)
def test_a_range_too_narrow_to_divide_renders_as_flat(ys):
    svg = render_within_a_second([("a", ys)])
    points = re.search(r'points="([^"]+)"', svg).group(1)
    assert len({pair.split(",")[1] for pair in points.split()}) == 1
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize(
    "curves, message",
    [
        ([("odd", [float("inf"), 0.0])], "curve 'odd' has a non-finite value"),
        ([("odd", [float("nan"), 1.0])], "curve 'odd' has a non-finite value"),
        ([("odd", [1e308, -1e308])], "y-range of curves 'odd' to 'odd' overflows a float"),
        ([("hi", [1e308]), ("lo", [-1e308])], "y-range of curves 'lo' to 'hi' overflows a float"),
    ],
)
def test_unplottable_values_raise_value_error_naming_the_curve(curves, message):
    with pytest.raises(ValueError) as info:
        render_within_a_second(curves)
    assert str(info.value) == message
