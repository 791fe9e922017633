"""CSV result tables with a provenance comment header.

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
    columns: list
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add_row(self, *cells):
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        for column, c in zip(self.columns, cells):
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError(f"{self.name}: non-finite {column} = {c}")
        self.rows.append(tuple(cells))

    def to_csv_text(self) -> str:
        lines = [f"# micromacro {__version__}", f"# table: {self.name}"]
        lines += [f"# {k}: {self.meta[k]}" for k in sorted(self.meta)]
        lines.append(",".join(self.columns))
        lines += [",".join(format_cell(c) for c in row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())

