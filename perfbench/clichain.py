"""The ``cli_cold`` chain: six subcommands and the checks on what they write.

Standard library only, so the parent process can check outputs without
importing numpy.  Reference columns come from ``reference.json``.
"""
from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

from common import SE_MULTIPLE, TOMO_SD_MULTIPLE, close

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: run configuration of every chain pass; only keys that exist today
CONFIG_TEXT = "detailed.mc_samples = 100000\n"

# subcommand -> (SVG chart it writes with --svg, CSV tables it writes)
CHAIN = {
    "curves": ("witness_curves", ("witness_curves", "reference_points")),
    "size": ("size_curve", ("size_curve", "size_summary")),
    "hom": ("hom_visibility", ("hom_visibility", "hom_overlap")),
    "detailed": ("detailed_grid", ("detailed_grid", "detailed_summary",
                                   "detailed_oracle")),
    "tomo": (None, ("tomo_summary", "tomo_matrix")),
    "validate": (None, ()),
}


def argv(cmd: str, config: Path, out: Path, seed: int) -> list[str]:
    """Arguments after ``micromacro``; no ``--jobs`` flag."""
    if cmd == "validate":
        return [cmd]
    args = [cmd, "--config", str(config), "--out", str(out), "--seed", str(seed)]
    return args + ["--svg"] if CHAIN[cmd][0] else args


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["cli_cold"]


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a table file; ``#`` lines are provenance."""
    with open(path, encoding="utf-8", newline="") as fh:
        body = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(body))
    if not rows:
        raise ValueError(f"{path.name}: no header")
    return rows[0], rows[1:]


def _column(header, rows, name) -> list[float]:
    k = header.index(name)
    return [float(r[k]) for r in rows]


def _check_table(table, header, rows, ref) -> str | None:
    for name, want in ref["columns"].get(table, {}).items():
        got = _column(header, rows, name)
        if len(got) != len(want) or any(
                not close(g, w) for g, w in zip(got, want)):
            return f"column {name} differs from the reference"
    keyed = {r[0]: r[1] for r in rows} if header[0] == "key" else {}
    for key, (want, tol) in ref["keyed"].get(table, {}).items():
        if not close(float(keyed[key]), want, tol):
            return f"{key} = {keyed[key]}, reference {want} (tol {tol})"
    if table == "detailed_oracle":
        dev = _column(header, rows, "deviation_se")
        if not all(math.isfinite(d) and d <= SE_MULTIPLE for d in dev):
            return f"oracle deviation {max(dev):.2f} se > {SE_MULTIPLE}"
    if table == "tomo_summary":
        mean, sd = ref["tomo_infidelity"]
        infid = 1.0 - float(keyed["fidelity"])
        if not infid <= mean + TOMO_SD_MULTIPLE * sd:
            return f"infidelity {infid:.3g} > {mean:.3g} + {TOMO_SD_MULTIPLE} x {sd:.3g}"
    return None


def check(cmd: str, code: int, stdout: str, out: Path, ref: dict) -> str | None:
    """None when the subcommand succeeded and wrote correct tables."""
    if code != 0:
        return f"{cmd}: exit status {code}"
    if cmd == "validate":
        m = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.M)
        if not m or m.group(1) != m.group(2) or int(m.group(2)) < 10:
            return f"validate: {m.group(0) if m else 'no summary line'}"
        return None
    svg, tables = CHAIN[cmd]
    if svg and not (out / f"{svg}.svg").is_file():
        return f"{cmd}: {svg}.svg not written"
    for table in tables:
        try:
            header, rows = read_csv(out / f"{table}.csv")
        except (OSError, ValueError, csv.Error) as exc:
            return f"{cmd}: {table}.csv does not parse: {exc}"
        if not rows or any(len(r) != len(header) for r in rows):
            return f"{cmd}: {table}.csv has ragged or no rows"
        try:
            problem = _check_table(table, header, rows, ref)
        except (ValueError, KeyError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            return f"{cmd}: {table}.csv: {problem}"
    return None
