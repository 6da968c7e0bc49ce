import json

import pytest

from h32fem.harness import (
    RateTable,
    emit,
    fit_rate,
    render_csv,
    render_json,
)


def test_fit_exact_power_laws():
    slope, r2 = fit_rate([(1.0, 1.0), (0.5, 0.25), (0.25, 0.0625)])
    assert abs(slope - 2.0) < 1e-12 and abs(r2 - 1.0) < 1e-12
    slope, _ = fit_rate([(1.0, 3.0), (0.5, 3.0), (0.25, 3.0)])
    assert abs(slope) < 1e-12
    slope, _ = fit_rate([(1.0, 2.0), (0.5, 2.0 * 0.5**1.5), (0.25, 2.0 * 0.25**1.5)])
    assert abs(slope - 1.5) < 1e-12


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_rate([(1.0, 1.0), (0.5, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(1.0, 1.0), (0.5, -0.5), (0.25, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(1.0, 1.0), (1.0, 0.5), (1.0, 0.1)])


def _sample_table():
    return RateTable(
        name="demo",
        statement="none",
        columns=["h", "value"],
        rows=[[1.0, 2.0], [0.5, 1.0], [0.25, 0.5]],
        fitted_slope=1.0,
        fit_r2=1.0,
        verdict="pass",
        criterion="demo criterion",
        config={"order": 1, "levels": 3, "seed": 1, "kappa": 0.1},
    )


def test_rows_must_be_sorted():
    with pytest.raises(ValueError):
        RateTable(
            name="bad", statement="", columns=["h", "v"],
            rows=[[0.5, 1.0], [1.0, 2.0]],
            fitted_slope=0.0, fit_r2=1.0, verdict="pass", criterion="",
        )


def test_csv_header_once_and_determinism(tmp_path):
    t = _sample_table()
    text = render_csv(t)
    header_rows = [l for l in text.splitlines() if l.startswith("h,")]
    assert len(header_rows) == 1
    p1 = emit(t, "csv", tmp_path / "a.csv")
    p2 = emit(t, "csv", tmp_path / "b.csv")
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_json_roundtrip(tmp_path):
    # the JSON document holds every field; the numbers as their 12-digit text
    t = _sample_table()
    doc = json.loads(render_json(t))
    doc["fitted_slope"] = float(doc["fitted_slope"])
    doc["fit_r2"] = float(doc["fit_r2"])
    doc["rows"] = [[float(v) for v in row] for row in doc["rows"]]
    assert RateTable(**doc) == t


def test_emit_format_validation(tmp_path):
    with pytest.raises(ValueError):
        emit(_sample_table(), "xml", tmp_path / "a.xml")
