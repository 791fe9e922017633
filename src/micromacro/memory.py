"""Storage-loop model of the quantum memory.

One pass through the memory acts like a beam splitter in time: a pulse is
partly transmitted at its own time slot and partly re-emitted one storage
time later.  Two passes with a programmable phase phi on the delayed pulse
give a three-pulse displacement train whose middle slot, the
back-displacement, carries 4 eta_t eta |alpha|^2 cos^2(phi / 2) photons.
This module keeps that closed form, its average over phase jitter, and the
interferometer visibility the same jitter implies; the slot-by-slot pulse
bookkeeping that derives it is the test reference (``tests/references.py``).
Higher-order echoes (re-absorption of the retrieved pulse) are outside the
model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MemoryParams:
    """eta_abs: absorption; eta: overall storage-retrieval efficiency."""

    eta_abs: float = 0.55
    eta: float = 0.046

    def __post_init__(self):
        if not 0.0 <= self.eta <= self.eta_abs <= 1.0:
            raise ValueError("require 0 <= eta <= eta_abs <= 1")

    @property
    def eta_t(self) -> float:
        """Transmission past the memory, 1 - eta_abs."""
        return 1.0 - self.eta_abs


def back_displacement_residual(alpha: complex, phi: float,
                               params: MemoryParams) -> float:
    """Mean photon number left in the middle slot: 4 eta_t eta |alpha|^2 cos^2(phi/2)."""
    return 4.0 * params.eta_t * params.eta * abs(alpha) ** 2 * math.cos(phi / 2.0) ** 2


def mean_residual_photons(alpha: complex, sigma_phi: float,
                          params: MemoryParams) -> float:
    """back_displacement_residual averaged over phi ~ N(pi, sigma_phi^2)."""
    return 2.0 * params.eta_t * params.eta * abs(alpha) ** 2 \
        * (1.0 - math.exp(-sigma_phi**2 / 2.0))


def visibility_from_errors(delta_a: float, sigma_phi: float,
                           nodes: int = 61) -> float:
    """Interference visibility under amplitude mismatch and phase jitter.

    V = 1 - <I(pi + x)> / I(0) with I(phi) = |1 + (1 + delta_a) e^{i phi}|^2
    and x ~ N(0, sigma_phi^2): the jitter-averaged dark-port power relative
    to the bright fringe.  The average is a Gauss-Hermite quadrature.
    """
    if sigma_phi < 0:
        raise ValueError("sigma_phi must be >= 0")
    t, w = np.polynomial.hermite.hermgauss(nodes)
    x = math.sqrt(2.0) * sigma_phi * t
    r = 1.0 + delta_a
    dark = np.abs(1.0 + r * np.exp(1j * (math.pi + x))) ** 2
    mean_dark = float(np.dot(w, dark) / math.sqrt(math.pi))
    return 1.0 - mean_dark / (1.0 + r) ** 2
