"""Check emitted rate tables (CSV) against committed reference tables.

Verdicts, statements, criteria, configs and column names must match
exactly. Numeric cells and the fitted slope and r^2 must match within a
relative tolerance, with an absolute floor so that residual cells near
rounding level (1e-16 identity residuals) may differ in their last bits.
The r^2 of a fit whose reference slope is itself below that floor (a
column constant to rounding) measures rounding noise, and is not compared.
"""

import os

RTOL = 1e-8
ATOL = 1e-12
NUMERIC_META = ("fitted_slope", "fit_r2")


def parse_table(text):
    """(meta dict, column list, row list) of one CSV rate table."""
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            lines.append(line.split(","))
    if not lines:
        raise ValueError("table has no column header")
    return meta, lines[0], lines[1:]


def _close(ref, got):
    try:
        a, b = float(ref), float(got)
    except ValueError:
        return ref == got
    return abs(a - b) <= max(RTOL * abs(a), ATOL)


def compare(ref_text, got_text):
    """Differences between a reference table and an emitted one, as messages."""
    ref_meta, ref_cols, ref_rows = parse_table(ref_text)
    meta, cols, rows = parse_table(got_text)
    out = []
    keys = set(ref_meta) | set(meta)
    if abs(float(ref_meta.get("fitted_slope", "nan"))) <= ATOL:
        keys.discard("fit_r2")
    for key in sorted(keys):
        a, b = ref_meta.get(key), meta.get(key)
        same = _close(a, b) if key in NUMERIC_META and None not in (a, b) else a == b
        if not same:
            out.append(f"{key}: reference {a!r}, got {b!r}")
    if cols != ref_cols:
        out.append(f"columns: reference {ref_cols}, got {cols}")
    if len(rows) != len(ref_rows):
        out.append(f"rows: reference {len(ref_rows)}, got {len(rows)}")
    for i, (ref_row, row) in enumerate(zip(ref_rows, rows)):
        if len(row) != len(ref_row):
            out.append(f"row {i}: reference {len(ref_row)} cells, got {len(row)}")
            continue
        for col, a, b in zip(cols, ref_row, row):
            if not _close(a, b):
                out.append(f"row {i} {col}: reference {a}, got {b}")
    return out


def verdict(text):
    return parse_table(text)[0].get("verdict")


def check_tables(out_dir, ref_dir, names):
    """Per experiment: (failed, problems) for the tables emitted in out_dir.

    An experiment fails if its table is missing (the run raised), if its
    verdict is not `pass`, or if the table disagrees with the reference.
    Problems lists every disagreement and every missing table.
    """
    result = {}
    for name in names:
        path = os.path.join(out_dir, f"{name}.csv")
        if not os.path.exists(path):
            result[name] = (True, [f"{name}: no table emitted"])
            continue
        with open(path) as f:
            got = f.read()
        with open(os.path.join(ref_dir, f"{name}.csv")) as f:
            problems = [f"{name}: {m}" for m in compare(f.read(), got)]
        result[name] = (bool(problems) or verdict(got) != "pass", problems)
    return result
