"""The SVG chart writer and the shared chart builders."""
import xml.etree.ElementTree as ET

import numpy as np

from segact import plots, svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(text):
    return ET.fromstring(text)


class TestLineChart:
    def test_one_path_per_series(self):
        x = np.linspace(0.0, 1.0, 11)
        chart = svg.line_chart([
            svg.Series("a", x, x),
            svg.Series("b", x, x ** 2, dashed=True),
        ], title="two series")
        root = parse(chart)
        assert len(root.findall(f"{SVG_NS}path")) == 2

    def test_nan_breaks_into_gap_within_one_path(self):
        y = np.array([0.0, 1.0, np.nan, 2.0, 3.0])
        chart = svg.line_chart([svg.Series("gappy", np.arange(5.0), y)])
        root = parse(chart)
        paths = root.findall(f"{SVG_NS}path")
        assert len(paths) == 1
        assert paths[0].get("d").count("M") == 2

    def test_markers_become_circles(self):
        chart = svg.line_chart([svg.Series("pts", np.arange(3.0),
                                           np.arange(3.0), markers=True)])
        root = parse(chart)
        assert len(root.findall(f"{SVG_NS}circle")) == 3

    def test_labels_are_escaped(self):
        chart = svg.line_chart([svg.Series("a<b & c", np.arange(2.0),
                                           np.arange(2.0))],
                               title="x < y")
        parse(chart)  # must stay well-formed XML

    def test_escaped_text_is_unchanged(self):
        text = """a & b < c > d " e ' f"""
        chart = svg.line_chart([svg.Series(text, np.arange(2.0),
                                           np.arange(2.0))], title=text)
        assert chart.count(
            """a &amp; b &lt; c &gt; d " e ' f""") == 2
        texts = [t.text for t in parse(chart).iter(f"{SVG_NS}text")]
        assert texts.count(text) == 2

    def test_write_appends_newline(self, tmp_path):
        path = tmp_path / "c.svg"
        svg.write(path, svg.line_chart([svg.Series("s", [0, 1], [0, 1])]))
        assert path.read_text().endswith("</svg>\n")


class TestChartBuilders:
    def test_activation_curves_have_seven_paths_and_dashed_sigmoid(self):
        root = parse(plots.activation_curves())
        paths = root.findall(f"{SVG_NS}path")
        assert len(paths) == 7
        dashed = [p for p in paths if p.get("stroke-dasharray")]
        assert len(dashed) == 1  # the sigmoid reference

    def test_loss_curves_builder(self):
        root = parse(plots.single_prediction_loss_curves("sigmoid"))
        assert len(root.findall(f"{SVG_NS}path")) == 3

    def test_reliability_chart_includes_diagonal(self):
        from segact import reliability
        rng = np.random.default_rng(0)
        yhat = rng.uniform(0.0, 1.0, 500)
        y = (rng.random(500) < yhat).astype(float)
        diagram = reliability(yhat, y, "evenly-spaced")
        root = parse(plots.reliability_chart({"model": diagram}, "title"))
        assert len(root.findall(f"{SVG_NS}path")) == 2  # diagonal + model

    def test_kde_chart(self):
        from segact import kde_conditional
        rng = np.random.default_rng(1)
        yhat = rng.uniform(0.3, 0.9, 400)
        y = np.ones(400)
        curve = kde_conditional(yhat, y)
        root = parse(plots.kde_chart({"fg": curve.density}, curve.grid, "t"))
        assert len(root.findall(f"{SVG_NS}path")) == 1
