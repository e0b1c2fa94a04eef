import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from mvlab.plotting import line_plot


def test_writes_valid_svg(tmp_path):
    f = str(tmp_path / "a.svg")
    x = np.linspace(0, 1, 20)
    line_plot([("one", x, np.sin(x)), ("two", x, np.cos(x))], f,
              title="t", xlabel="x", ylabel="y")
    text = Path(f).read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2


def test_bitwise_deterministic(tmp_path):
    x = np.linspace(0, 5, 50)
    y = np.exp(-x)
    fa, fb = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    line_plot([("s", x, y)], fa, logy=True)
    line_plot([("s", x, y)], fb, logy=True)
    assert Path(fa).read_bytes() == Path(fb).read_bytes()


def test_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError):
        line_plot([], str(tmp_path / "a.svg"))


def test_logy_needs_positive_values(tmp_path):
    with pytest.raises(ValueError):
        line_plot([("s", np.array([0.0, 1.0]), np.array([-1.0, -2.0]))],
                  str(tmp_path / "a.svg"), logy=True)


def test_text_is_xml_escaped(tmp_path):
    f = str(tmp_path / "a.svg")
    x = np.linspace(0, 1, 5)
    line_plot([("a<b & c", x, x)], f, title="a<b & c", xlabel="a<b & c", ylabel="a<b & c")
    texts = [el.text for el in ET.parse(f).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert texts.count("a<b & c") == 4
