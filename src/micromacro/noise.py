"""Simple noise model: back-displacement noise fraction and witness curves.

An imperfect back-displacement leaves residual light in the memory output
mode; the state is approximated as a Werner state whose visibility is the
product of the displacement-free entanglement visibility and (1 - noise
fraction).  All click/leak probabilities below have closed forms that tests
verify against the defining Poisson series to 1e-12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ranges import POSITIVE, UNIT, Range, Ranged, ranged

#: the SD of a quantity confined to [0, 1] is at most 1/2 (half its mass at
#: each end), so a band draw mean + sd z stays finite
SPREAD = Range(0.0, 0.5)


@dataclass(frozen=True)
class ExperimentParams(Ranged):
    """Independently measured parameters (mean and optional std for bands).

    eta_h      heralding efficiency of the signal photon
    bs_t       transmittance of the displacement beam splitter
    eta        memory storage-retrieval efficiency
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
class WitnessCurve:
    """Predicted witnesses on an |alpha|^2 grid, with one-sigma band half-widths.

    ``excitations`` is eta_abs * alpha_sq: the quoted sizes are already
    overlap-corrected, so only the absorption probability enters.
    """

    alpha_sq: np.ndarray
    excitations: np.ndarray
    s: np.ndarray
    ppt: np.ndarray
    concurrence: np.ndarray
    band_s: np.ndarray
    band_ppt: np.ndarray
    band_concurrence: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.alpha_sq) <= 0):
            raise ValueError("alpha_sq grid must be strictly increasing")
        for b in (self.band_s, self.band_ppt, self.band_concurrence):
            if np.any(b < 0):
                raise ValueError("band half-widths must be >= 0")


def noise_click_prob(mu: float, eta, vis):
    """Probability that residual back-displacement light produces a click.

    Closed form of the Poisson sum over >= 1 displacement photons each
    leaking with probability 2 eta (1 - vis).  ``eta`` and ``vis`` may be
    arrays.
    """
    if mu < 0:
        raise ValueError("mu must be >= 0")
    return -np.expm1(-2.0 * mu * eta * (1.0 - vis))


def no_leak_prob(mu: float, eta, vis):
    """Probability that at least one photon arrived and none leaked.

    The defining sum starts at one photon, so the Poisson vacuum term is
    excluded: exp(-2 mu eta (1-vis)) - exp(-mu), written with expm1 so it
    keeps full precision at small mu.  Zero at mu = 0.  ``eta`` and ``vis``
    may be arrays.
    """
    return np.expm1(-2.0 * mu * eta * (1.0 - vis)) - math.expm1(-mu)


def _noise_fraction(mu: float, bs_t: float, eta_h, eta, vis):
    """p_n / (p_s + p_n) with p_s = eta_h bs_t eta pbar_n; arrays allowed.

    Both carry a factor eta, so at eta = 0 (a band draw clipped there) the
    ratio takes its limit, p_n / eta -> 2 mu (1 - vis) and
    p_s / eta -> eta_h bs_t pbar_n.
    """
    p_n = noise_click_prob(mu, eta, vis)
    pbar_n = no_leak_prob(mu, eta, vis)
    p_s = eta_h * bs_t * eta * pbar_n
    denom = p_s + p_n
    if np.any(denom == 0.0):  # so is every eta = 0 entry: p_s = p_n = 0
        dark = eta == 0.0
        p_n = np.where(dark, 2.0 * mu * (1.0 - vis), p_n)
        p_s = np.where(dark, eta_h * bs_t * pbar_n, p_s)
        denom = p_s + p_n
        if np.any(denom == 0.0):
            raise ValueError("p_s + p_n = 0: noise fraction undefined at this input")
    return p_n / denom


def werner_visibility(alpha_sq: float, params: ExperimentParams, eta_h, eta, vis):
    """W = v_mm * (1 - p_n / (p_s + p_n)) at mu = kappa * alpha_sq.

    ``eta_h``, ``eta`` and ``vis`` may be arrays.  A zero-size displacement
    is no operation at all and contributes no noise, so alpha_sq = 0 maps to
    W = v_mm exactly (the noise formulas themselves condition on at least one
    displacement photon and are undefined there).  A mu that overflows to
    infinity is refused, and so is a mean eta of 0, which retrieves nothing.
    """
    if alpha_sq < 0:
        raise ValueError("alpha_sq must be >= 0")
    if alpha_sq == 0.0:
        return params.v_mm + np.zeros_like(eta)
    mu = params.kappa * float(alpha_sq)
    if not math.isfinite(mu):
        raise ValueError(f"mu = kappa * alpha_sq = {params.kappa:g} * {alpha_sq:g} "
                         "is not finite")
    if params.eta == 0.0:
        raise ValueError("p_s + p_n = 0: noise fraction undefined at eta = 0")
    return params.v_mm * (1.0 - _noise_fraction(mu, params.bs_t, eta_h, eta, vis))


def werner_witnesses(w):
    """(CHSH S, PPT minimum eigenvalue, concurrence) of Werner visibility w.

    S = 2 sqrt(2) w, PPT = (1 - 3w)/4, C = max(0, (3w - 1)/2); ``w`` may be
    a scalar or an array.
    """
    w = np.asarray(w, dtype=float)
    return (2.0 * math.sqrt(2.0) * w, (1.0 - 3.0 * w) / 4.0,
            np.maximum(0.0, (3.0 * w - 1.0) / 2.0))


def witness_band_point(alpha_sq: float, params: ExperimentParams,
                       band_samples: int, rng_seed: int,
                       index: int) -> tuple[float, float, float]:
    """One-sigma witness spreads at a single grid point.

    One (band_samples, 3) block of standard normals gives every sample's
    (eta_h, eta, vis) = mean + sd * z, clipped to [0, 1]; W is evaluated on
    all samples at once.  Row-major order uses the draws as one scalar
    ``rng.normal(mean, sd)`` per parameter and sample would.  The generator
    is seeded from (rng_seed, index), so the result does not depend on
    evaluation order or on how points are split across workers.  At
    alpha_sq = 0 every sample's W is v_mm, so the spreads are exactly zero.
    A spread needs at least two samples.
    """
    if band_samples < 2:
        raise ValueError(f"band_samples={band_samples} must be >= 2 for a spread")
    if alpha_sq == 0.0:
        return 0.0, 0.0, 0.0
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, index]))
    z = rng.standard_normal((band_samples, 3))
    mean = np.array([params.eta_h, params.eta, params.vis])
    sd = np.array([params.sd_eta_h, params.sd_eta, params.sd_vis])
    eta_h, eta, vis = np.clip(mean + sd * z, 0.0, 1.0).T
    ws = werner_visibility(alpha_sq, params, eta_h, eta, vis)
    s, ppt, conc = werner_witnesses(ws)
    return float(np.std(s)), float(np.std(ppt)), float(np.std(conc))


def predict_witness_curves(alpha_sq_grid, params: ExperimentParams = ExperimentParams(),
                           band_samples: int = 200, rng_seed: int = 0) -> WitnessCurve:
    """Predicted S / PPT / concurrence over a displacement-size grid.

    Band half-widths are one standard deviation of each witness under
    ``band_samples`` Gaussian draws of the uncertain parameters (eta_h, eta,
    vis), one vectorised ``witness_band_point`` per grid point; 0 gives zero
    bands.  Every grid point derives its own seed from (rng_seed, point
    index), so results are independent of evaluation order.
    """
    grid = np.asarray(alpha_sq_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("alpha_sq grid is empty")
    w = np.array([werner_visibility(a, params, params.eta_h, params.eta, params.vis)
                  for a in grid])
    s, ppt, conc = werner_witnesses(w)

    bands = np.zeros((grid.size, 3))
    if band_samples > 0:
        for i, a in enumerate(grid):
            bands[i] = witness_band_point(a, params, band_samples, rng_seed, i)
    band_s, band_ppt, band_conc = bands.T

    return WitnessCurve(
        alpha_sq=grid,
        excitations=params.eta_abs * grid,
        s=s, ppt=ppt, concurrence=conc,
        band_s=band_s, band_ppt=band_ppt, band_concurrence=band_conc,
    )
