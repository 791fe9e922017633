"""Pieces shared by the parent and the worker: tolerances, tallies, the pass loop.

Standard library only, so the parent process never imports numpy.
"""
from __future__ import annotations

import time

#: relative tolerance for closed-form outputs (P_g, S, W, hom V, joints)
REL_TOL = 1e-8
#: sampled outputs must land within this many standard errors of the reference
SE_MULTIPLE = 6.0
#: tomography infidelity has a long right tail (chi-square like): over 1800
#: reference draws the largest was 4.9 standard deviations above the mean
TOMO_SD_MULTIPLE = 10.0
MAX_ERRORS = 10


def close(got: float, want: float, tol: float | None = None) -> bool:
    """Within ``tol`` absolute, or REL_TOL relative when ``tol`` is None."""
    if tol is None:
        return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)
    return abs(got - want) <= tol


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(problem)

    def absorb(self, other: dict) -> None:
        """Add a worker's counts, as ``as_dict`` wrote them."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors += other["errors"][:MAX_ERRORS - len(self.errors)]

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors}


def timed_passes(seconds: float, one_pass) -> list:
    """Results of ``one_pass()``, repeated for about ``seconds``; at least one.

    Another pass starts only if it would end, at the last pass's length, less
    than half a pass after ``seconds``.
    """
    results, last = [], 0.0
    start = time.perf_counter()
    while not results or time.perf_counter() - start + last / 2 < seconds:
        t = time.perf_counter()
        results.append(one_pass())
        last = time.perf_counter() - t
    return results
