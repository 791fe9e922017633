"""Declared parameter ranges, each written once on its dataclass field.

A field declares its range with ``ranged``; a ``Ranged`` dataclass checks
every declared field on construction and names the one out of range.  The
run configuration checks its keys against the same ``Range`` objects, and
takes every model's parameter dataclass from here, loading no physics module.
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


#: lam = alpha^2 up to 1e6 photons: ``macro``'s window form's rounding, eps
#: lam log lam, stays below 1e-8 (3e-9 at 1e6), and the lossy mixture's
#: lattice below 2e7 points (160 MB)
LAM = Range(0.0, 1e6)
#: coincidence windows (ns) of ``hom.temporal_overlap``.  Narrow windows lose
#: digits to the cancellation of its two erfcx terms: at the default
#: profiles xi is within 1e-12 of a 40-digit quadrature from 1e-3 ns up,
#: but off by 7.1e-12 at 1e-4 and above 1 at 1e-5.  A CSP wide against the
#: window loses more: at csp_fwhm = 100 xi is off by 1.6e-11 at 1e-3 ns,
#: 1.5e-11 at 1e-2 and 5.1e-13 at 0.5, and by up to 2.3e-10 at 1e-3 ns
#: (csp_fwhm 106) where a nears hom's erfcx switch at 25
WINDOW = Range(1e-3)
#: the detailed analyzer grid, in degrees: ``detailed`` tabulates the joints
#: at every (theta_a, theta_b) pair of it
GRID_DEG = (0.0, 22.5, 45.0, 67.5)
#: the SD of a quantity confined to [0, 1] is at most 1/2 (half its mass at
#: each end), so a band draw mean + sd z stays finite
SPREAD = Range(0.0, 0.5)


@dataclass(frozen=True)
class ClickDetector(Ranged):
    """Non-photon-number-resolving detector: efficiency and dark-count probability."""

    eta_d: float = ranged(UNIT)
    p_dc: float = ranged(Range(0.0, 1.0, "[)"), 0.0)


@dataclass(frozen=True)
class ExperimentParams(Ranged):
    """Independently measured parameters (mean and optional std for bands).

    eta_h      heralding efficiency of the signal photon
    bs_t       transmittance of the displacement beam splitter
    eta        memory storage-retrieval efficiency, at most eta_abs
    vis        back-displacement interference visibility
    v_mm       entanglement visibility without displacement
    eta_abs    memory absorption probability
    kappa      mapping mu = kappa * |alpha|^2 from displacement size to the
               mean photon number used by the noise formulas
    """

    eta_h: float = ranged(UNIT, 0.19)
    bs_t: float = ranged(UNIT, 0.995)
    eta: float = ranged(UNIT, 0.046)
    vis: float = ranged(UNIT, 0.9985)
    v_mm: float = ranged(UNIT, 0.94)
    #: above 0: the size analysis divides the stored size by it
    eta_abs: float = ranged(Range(0.0, 1.0, "(]"), 0.55)
    kappa: float = ranged(POSITIVE, 1.0)
    sd_eta_h: float = ranged(SPREAD, 0.02)
    sd_eta: float = ranged(SPREAD, 0.002)
    sd_vis: float = ranged(SPREAD, 0.0002)


@dataclass(frozen=True)
class HomParams(Ranged):
    #: both splitter inputs are cut at hom.N_MAX = 6 photons; the CSP mass past
    #: the cut, counted as coincidences, is 2e-9 at mu = 0.2 and 8.3e-5 at 1,
    #: and 3.4e-2 at 3, so the model stops at 1
    mu_csp: float = ranged(Range(0.0, 1.0), 0.012)
    #: at 0 no pair is heralded: 0/0 in the heralded weights
    p_pair: float = ranged(Range(0.0, 1.0, "()"), 0.005)
    eta_h: float = ranged(UNIT, 0.19)
    xi: float = ranged(UNIT, 1.0)
    detector: ClickDetector = field(default_factory=lambda: ClickDetector(0.5, 0.0))


@dataclass(frozen=True)
class TemporalProfiles(Ranged):
    """CSP: Gaussian of intensity FWHM csp_fwhm (ns); heralded photon:
    double-sided exponential amplitude with coherence time tau_c (ns).

    The default FWHM of 1.0 ns is calibrated so the 3 ns-window mode overlap
    reproduces the measured visibility ratio 0.74/0.85 = 0.87 (a nominal
    2.0 ns pulse would give an overlap above 0.99 there).
    """

    csp_fwhm: float = ranged(POSITIVE, 1.0)
    hsp_tau_c: float = ranged(POSITIVE, 1.9)


@dataclass(frozen=True)
class DetailedParams(Ranged):
    """Source, propagation and detection parameters of the detailed model.

    ``r`` is the amplitude remainder of the herald tap: a herald efficiency
    eta_A corresponds to r = sqrt(1 - eta_A).
    """

    #: g <= 5 keeps 1 - tanh^2 g above 1e-4, so nbar = tanh^2 g / (1 - tanh^2 g)
    #: is good to ~1e-12; it is 4 % off at g = 18 and divides by 0 past g = 19.06
    g: float = ranged(Range(0.0, 5.0), 0.2)
    r: float = ranged(UNIT, 0.9)
    eta_d: float = ranged(UNIT, 0.35)
    p_dc: float = ranged(UNIT, 1e-4)
    t1: float = ranged(UNIT, 0.995)
    t2: float = ranged(UNIT, 0.995)
    eta_c: float = ranged(UNIT, 0.5)
    #: only gamma^2, the leak's mean photon number, enters; at 1e6 photons and
    #: the default jitter the main detector fires in 98 % of rounds; gamma^2 stays finite
    gamma: float = ranged(Range(0.0, 1e3), 2.0)
    #: radians; a phase spread past pi is no small jitter, and sigma_phi^2 stays finite
    sigma_phi: float = ranged(Range(0.0, math.pi), math.sqrt(2.0 * 0.0015))
