"""Declared parameter ranges, each written once on its dataclass field.

A field declares its range with ``ranged``; a ``Ranged`` dataclass checks
every declared field on construction and names the one out of range.  The
run configuration checks its keys against the same ``Range`` objects.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields


@dataclass(frozen=True)
class Range:
    """Finite values from ``lo`` to ``hi``; ``ends`` marks each end closed
    ``[]`` or open ``()``."""

    lo: float
    hi: float = math.inf
    ends: str = "[]"

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"{'>=' if self.ends[0] == '[' else '>'} {self.lo:g}"
        return f"in {self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"

    def check(self, value, name: str = ""):
        """Return ``value`` if it lies in the range, else raise ValueError,
        its message led by ``name=value`` when a name is given."""
        # an int is finite, and math.isfinite would overflow on a huge one
        finite = isinstance(value, int) or math.isfinite(value)
        lo_ok = self.lo <= value if self.ends[0] == "[" else self.lo < value
        hi_ok = value <= self.hi if self.ends[1] == "]" else value < self.hi
        if finite and lo_ok and hi_ok:
            return value
        why = f"must be {self}" if finite else "must be finite"
        raise ValueError(f"{name}={value} {why}" if name else why)


UNIT, NONNEGATIVE, POSITIVE = Range(0.0, 1.0), Range(0.0), Range(0.0, ends="()")


def ranged(rng: Range, default=MISSING):
    """A dataclass field whose values must lie in ``rng``."""
    return field(default=default, metadata={"range": rng})


class Ranged:
    """Base of the parameter dataclasses: construction checks every field
    that declares a range, and the error names the field."""

    def __post_init__(self):
        for f in fields(self):
            if "range" in f.metadata:
                f.metadata["range"].check(getattr(self, f.name), f.name)

    @classmethod
    def range_of(cls, name: str) -> Range:
        return next(f.metadata["range"] for f in fields(cls) if f.name == name)
