"""Output checks for one CLI operation.

An operation fails if it exits non-zero, prints a traceback, writes a
`validate` row with pass=0, differs from its recorded reference, or differs
from the tabulated oracle.  Tolerances:

* reference: same header, row labels, shape and NaN positions; finite values
  within REF_RTOL * |ref| + REF_ATOL; integer flag columns exactly equal; the
  `# poles:` line with the same number of poles, each within POLE_ATOL.
* oracle, `simulate`: Bloch components and purity within ORACLE_ATOL.
* oracle, `moments`: the quadrature column within ORACLE_ATOL.
* oracle, `rates`: on rows where the oracle's |det M| >= DET_FLOOR the rate
  columns must be finite and within RATES_RTOL * max(1, |oracle|); every
  reported pole has oracle |det M| <= POLE_DET, and every sign change of the
  oracle det M between grid rows has a reported pole in that interval.
"""

from __future__ import annotations

import os

import numpy as np

REF_RTOL = 1e-7
REF_ATOL = 1e-10
POLE_ATOL = 1e-9
ORACLE_ATOL = 1e-9
RATES_RTOL = 1e-6
DET_FLOOR = 1e-3
POLE_DET = 1e-6

_RATE_COLUMNS = ("gamma_x", "gamma_y", "gamma_z", "gamma_xy", "omega_bar", "kossakowski_min")
_EXACT_COLUMNS = ("pole_flag", "pass", "pole_count")


class Table:
    """A CLI CSV: header, optional text labels in column 0, numbers, '#' lines."""

    def __init__(self, header, labels, data, comments):
        self.header = list(header)
        self.labels = list(labels)
        self.data = np.asarray(data, dtype=float).reshape(len(data), len(self.columns))
        self.comments = list(comments)

    @classmethod
    def read(cls, path):
        with open(path, newline="") as handle:
            lines = handle.read().splitlines()
        comments = [line for line in lines if line.startswith("#")]
        rows = [line.split(",") for line in lines if line and not line.startswith("#")]
        if not rows:
            raise ValueError(f"{os.path.basename(path)}: no header")
        header, body = rows[0], rows[1:]
        labelled = bool(body) and not _is_number(body[0][0])
        labels = [r[0] for r in body] if labelled else []
        data = [[float(c) for c in (r[1:] if labelled else r)] for r in body]
        return cls(header, labels, data, comments)

    @property
    def columns(self):
        return self.header[1:] if self.labels else self.header

    def column(self, name):
        return self.data[:, self.columns.index(name)]

    def poles(self):
        """Values on the '# poles:' line; None without one."""
        for line in self.comments:
            if line.startswith("# poles:"):
                rest = line[len("# poles:"):].split()
                return [] if rest == ["none"] else [float(v) for v in rest]
        return None


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def data_rows(out_dir):
    """CSV data rows (header and '#' lines excluded) over all CSVs of an operation."""
    total = 0
    for name in os.listdir(out_dir):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name)) as handle:
                total += sum(1 for line in handle if line.strip() and not line.startswith("#")) - 1
    return total


def compare_reference(name, table, ref):
    """Problems of table against its reference (both Table)."""
    problems = []
    if table.header != ref.header:
        return [f"{name}: header {table.header} != reference {ref.header}"]
    if table.labels != ref.labels:
        return [f"{name}: row labels differ from the reference"]
    if table.data.shape != ref.data.shape:
        return [f"{name}: shape {table.data.shape} != reference {ref.data.shape}"]
    nan_out, nan_ref = np.isnan(table.data), np.isnan(ref.data)
    if np.any(nan_out != nan_ref):
        rows = np.nonzero(np.any(nan_out != nan_ref, axis=1))[0]
        problems.append(f"{name}: NaN positions differ on {rows.size} rows (first row {rows[0] + 1})")
    both = ~nan_out & ~nan_ref
    for j, col in enumerate(table.columns):
        out, exp = table.data[both[:, j], j], ref.data[both[:, j], j]
        if col in _EXACT_COLUMNS:
            bad = out != exp
        else:
            bad = np.abs(out - exp) > REF_RTOL * np.abs(exp) + REF_ATOL
        if np.any(bad):
            worst = float(np.max(np.abs(out - exp)))
            problems.append(f"{name}: column {col} differs from the reference on "
                            f"{int(bad.sum())} rows (max abs diff {worst:.3e})")
    poles, ref_poles = table.poles(), ref.poles()
    if (poles is None) != (ref_poles is None) or (
            poles is not None and (len(poles) != len(ref_poles) or any(
                abs(p - q) > POLE_ATOL for p, q in zip(poles, ref_poles)))):
        problems.append(f"{name}: poles {poles} != reference {ref_poles}")
    return problems


def check_simulate_oracle(table, oracle, bloch):
    t = table.column("t")
    r, purity = oracle.trajectory(t, bloch)
    out = np.column_stack([table.column("r_x"), table.column("r_y"), table.column("r_z")])
    err = max(float(np.max(np.abs(out - r))), float(np.max(np.abs(table.column("purity") - purity))))
    if not err <= ORACLE_ATOL:
        return [f"simulate: max |output - lab-frame oracle| = {err:.3e} > {ORACLE_ATOL:g}"]
    return []


def check_moments_oracle(table, oracle):
    first, second = oracle.first, oracle.second
    expected = {"first_x": first[0], "first_y": first[1], "first_z": first[2],
                "second_xx": second[0, 0], "second_yy": second[1, 1], "second_zz": second[2, 2],
                "second_xy": second[0, 1], "second_xz": second[0, 2], "second_yz": second[1, 2]}
    quad = table.column("quadrature")
    err = max(abs(q - expected[label]) for label, q in zip(table.labels, quad))
    if set(table.labels) != set(expected) or not err <= ORACLE_ATOL:
        return [f"moments: max |quadrature - oracle| = {err:.3e} > {ORACLE_ATOL:g}"]
    return []


def check_rates_oracle(table, oracle):
    t = table.column("t")
    ref = oracle.rates(t)
    problems = []
    regular = np.abs(ref["det"]) >= DET_FLOOR
    columns = _RATE_COLUMNS if oracle.aligned() else tuple(c for c in _RATE_COLUMNS if c != "omega_bar")
    for col in columns:
        out, exp = table.column(col)[regular], ref[col][regular]
        bad = ~(np.abs(out - exp) <= RATES_RTOL * np.maximum(1.0, np.abs(exp)))
        if np.any(bad):
            problems.append(f"rates: {col} differs from the oracle on {int(bad.sum())} regular rows")
    poles = table.poles()
    if poles is None:
        return problems + ["rates: no '# poles:' line"]
    for p in poles:
        if abs(float(oracle.det(p)[0])) > POLE_DET:
            problems.append(f"rates: reported pole {p!r} is not a root of the oracle det M")
    det = ref["det"]
    for i in np.nonzero(np.sign(det[:-1]) * np.sign(det[1:]) < 0)[0]:
        if not any(t[i] <= p <= t[i + 1] for p in poles):
            problems.append(f"rates: oracle det M changes sign in [{t[i]!r}, {t[i + 1]!r}] "
                            f"without a reported pole")
    return problems


def check_validate(table):
    passed = table.column("pass")
    if table.data.shape[0] == 0:
        return ["validate: no check rows"]
    failed = [label for label, p in zip(table.labels, passed) if p != 1]
    return [f"validate: check {label} failed" for label in failed]


def save_tables(path, tables):
    """Write {key: Table} to an .npz archive (no pickled objects)."""
    arrays = {}
    for key, table in tables.items():
        arrays[f"{key}|header"] = np.array(table.header)
        arrays[f"{key}|labels"] = np.array(table.labels, dtype=str)
        arrays[f"{key}|data"] = table.data
        arrays[f"{key}|comments"] = np.array(table.comments, dtype=str)
    np.savez_compressed(path, **arrays)


def load_tables(path):
    """Inverse of save_tables."""
    with np.load(path) as data:
        keys = sorted({name.rsplit("|", 1)[0] for name in data.files})
        return {key: Table([str(h) for h in data[f"{key}|header"]],
                           [str(v) for v in data[f"{key}|labels"]],
                           data[f"{key}|data"],
                           [str(c) for c in data[f"{key}|comments"]])
                for key in keys}
