"""Rate tables, least-squares rate fitting, and deterministic table output."""

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np


def fit_rate(samples):
    """Least-squares slope and r^2 of log(value) against log(h).

    samples: sequence of (h, value) pairs with positive values and at least
    three distinct h.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError("need at least 3 samples to fit a rate")
    h = np.array([s[0] for s in samples], dtype=float)
    v = np.array([s[1] for s in samples], dtype=float)
    if len(np.unique(h)) < 3:
        raise ValueError("need at least 3 distinct h values")
    if np.any(v <= 0.0):
        raise ValueError("rate fitting needs positive values")
    x, y = np.log(h), np.log(v)
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(coef[0]), r2


@dataclass
class RateTable:
    """One experiment's measurements, fitted rate, and verdict."""

    name: str
    statement: str            # which estimate this experiment certifies
    columns: list             # column names; first is always "h"
    rows: list                # list of per-level value lists, h decreasing
    fitted_slope: float       # slope of the verdict-bearing column
    fit_r2: float
    verdict: str              # "pass" | "fail"
    criterion: str            # human-readable threshold encoding
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        hs = [r[0] for r in self.rows]
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("rows must be sorted by decreasing h")

    @property
    def passed(self):
        return self.verdict == "pass"


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def render_csv(table):
    lines = [
        f"# experiment={table.name}",
        f"# statement={table.statement}",
        f"# criterion={table.criterion}",
        f"# fitted_slope={_fmt(table.fitted_slope)}",
        f"# fit_r2={_fmt(table.fit_r2)}",
        f"# verdict={table.verdict}",
    ]
    for key in sorted(table.config):
        lines.append(f"# config.{key}={_fmt(table.config[key])}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(table):
    doc = asdict(table)
    doc["fitted_slope"] = _fmt(table.fitted_slope)
    doc["fit_r2"] = _fmt(table.fit_r2)
    doc["rows"] = [[_fmt(v) for v in row] for row in table.rows]
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def emit(table, fmt, path):
    """Write a table; byte-identical output for identical table contents."""
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)
    return path
