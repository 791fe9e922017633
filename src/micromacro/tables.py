"""CSV result tables, built from named equal-length columns (numpy arrays as
they come), with a provenance comment header.

The header carries the package version, the table name, and sorted metadata
(config hash, seed, command); no timestamps, so a rerun with the same config
and seed reproduces the file byte for byte.  Floats are written with %.12g
and must be finite: a NaN or inf cell is refused, never written.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import __version__


def format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


@dataclass
class ResultTable:
    name: str
    columns: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {column: len(cells) for column, cells in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"{self.name}: columns of unequal length {lengths}")
        for column, cells in self.columns.items():
            for c in cells:
                if isinstance(c, float) and not math.isfinite(c):
                    raise ValueError(f"{self.name}: non-finite {column} = {c}")

    @classmethod
    def key_value(cls, name: str, values: dict, meta: dict) -> ResultTable:
        """A two-column ``key,value`` table, one row per item of ``values``."""
        return cls(name, {"key": list(values), "value": list(values.values())}, meta)

    def to_csv_text(self) -> str:
        lines = [f"# micromacro {__version__}", f"# table: {self.name}"]
        lines += [f"# {k}: {self.meta[k]}" for k in sorted(self.meta)]
        lines.append(",".join(self.columns))
        lines += [",".join(map(format_cell, row)) for row in zip(*self.columns.values())]
        return "\n".join(lines) + "\n"
