"""Simple noise model: back-displacement noise fraction and witness curves.

An imperfect back-displacement leaves residual light in the memory output
mode; the state is approximated as a Werner state whose visibility is the
product of the displacement-free entanglement visibility and (1 - noise
fraction).  All click/leak probabilities below have closed forms that tests
verify against the defining Poisson series to 1e-12.

The leak comes from the memory's storage loop, a beam splitter in time: a
pass transmits a pulse in its own slot (eta_t = 1 - eta_abs) and re-emits it
(eta) one storage time later.  Two passes with phase phi on the delayed pulse
leave 4 eta_t eta |alpha|^2 cos^2(phi / 2) photons in the middle slot, the
back-displacement residual; the slot-by-slot bookkeeping behind it is the
test reference (``tests/references.py``).  Re-absorption of the retrieved
pulse is outside the model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ranges import ExperimentParams


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


def back_displacement_residual(alpha: complex, phi: float,
                               params: ExperimentParams) -> float:
    """Mean photon number left in the middle slot: 4 eta_t eta |alpha|^2 cos^2(phi/2)."""
    eta_t = 1.0 - params.eta_abs
    return 4.0 * eta_t * params.eta * abs(alpha) ** 2 * math.cos(phi / 2.0) ** 2


def mean_residual_photons(alpha: complex, sigma_phi: float,
                          params: ExperimentParams) -> float:
    """back_displacement_residual averaged over phi ~ N(pi, sigma_phi^2),
    where <cos^2(phi/2)> = (1 - e^(-sigma_phi^2 / 2)) / 2."""
    return back_displacement_residual(alpha, 0.0, params) \
        * (1.0 - math.exp(-sigma_phi**2 / 2.0)) / 2.0


def visibility_from_errors(delta_a: float, sigma_phi: float) -> float:
    """Interference visibility under amplitude mismatch and phase jitter.

    V = 1 - <I(pi + x)> / I(0) with I(phi) = |1 + r e^{i phi}|^2, r = 1 + delta_a
    and x ~ N(0, sigma_phi^2), the jitter-averaged dark-port power relative to
    the bright fringe; <cos x> = e^(-sigma_phi^2 / 2) gives the closed form
    V = 1 - (1 + r^2 - 2 r e^(-sigma_phi^2 / 2)) / (1 + r)^2.
    """
    r = 1.0 + delta_a
    return 1.0 - (1.0 + r * r - 2.0 * r * math.exp(-sigma_phi**2 / 2.0)) / (1.0 + r) ** 2


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
            raise ValueError(
                "p_s + p_n = 0: noise fraction undefined: eta_h bs_t = 0 gives no "
                "signal click and vis = 1 no noise click; raise noise.eta_h and "
                "noise.bs_t or lower noise.vis, or, if band draws clip there, "
                "noise.sd_eta_h or noise.sd_vis")
    return p_n / denom


def werner_visibility(alpha_sq: float, params: ExperimentParams, eta_h, eta, vis):
    """W = v_mm * (1 - p_n / (p_s + p_n)) at mu = kappa * alpha_sq.

    ``eta_h``, ``eta`` and ``vis`` may be arrays.  A zero-size displacement
    is no operation at all and contributes no noise, so alpha_sq = 0 maps to
    W = v_mm exactly (the noise formulas themselves condition on at least one
    displacement photon and are undefined there).  A mu whose leak exponent
    2 mu overflows to infinity is refused (a band draw at eta = 0 or vis = 1
    would turn it into inf * 0), and so is a mean eta of 0, which retrieves
    nothing.
    """
    if alpha_sq < 0:
        raise ValueError("alpha_sq must be >= 0")
    if alpha_sq == 0.0:
        return params.v_mm + np.zeros_like(eta)
    # below mu = 1e-250 the fraction is its mu -> 0 limit to rounding, but p_s
    # and p_n (factors of mu) lose digits in the subnormals (W off by 3.7e-5 at
    # mu = 1e-318) and are 0 at 5e-324, or where mu itself rounds to 0
    mu = max(params.kappa * float(alpha_sq), 1e-250)
    if not math.isfinite(2.0 * mu):
        raise ValueError(f"mu = kappa * alpha_sq = {params.kappa:g} * {alpha_sq:g} "
                         "overflows: 2 mu is not finite")
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
    evaluation order.  At alpha_sq = 0 every sample's W is v_mm, so the
    spreads are exactly zero.  A spread needs at least two samples.
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
