import hashlib
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


def test_all_empty_series_rejected_by_name(tmp_path):
    # without logy an empty y range used to reach numpy's zero-size reduction
    with pytest.raises(ValueError, match="need at least one point"):
        line_plot([("a", [], [])], str(tmp_path / "a.svg"))


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


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_golden_bytes(tmp_path):
    # digests recorded before the writer was refactored: any change to the
    # markup, the number format or the logy filtering moves them
    x = np.linspace(-2.0, 3.0, 41)
    lin = str(tmp_path / "lin.svg")
    line_plot([("gauss <a&b>", x, np.exp(-x * x)), ("", x, 0.5 * x), ("tanh", x, np.tanh(x))],
              lin, title="Density <p> & q", xlabel="x & y", ylabel="p<x>")
    # non-positive values in both series; the x range still reads every x
    t = np.linspace(0.0, 4.0, 33)
    log = str(tmp_path / "log.svg")
    line_plot([("decay", t, np.exp(-t) - 0.05), ("floor", t, np.where(t < 2, 1e-3, 0.0))],
              log, title="envelope", xlabel="t", ylabel="W2", logy=True)
    assert _sha256(lin) == "f1311da99d97d7a376f2913077ac1d4ee9def950c575249962995f7e6c04fba0"
    assert _sha256(log) == "a2950169019556ff68902c698de247711f55124f580bc544dfaec0832631a22b"
