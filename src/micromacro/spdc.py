"""Detailed source model: double-pair emission, herald conditioning, leakage.

Two equal-gain two-mode squeezers populate the polarization pairs
(a, b_perp) and (a_perp, b).  A click/no-click herald on the two analyzer
outputs of side A leaves side B in a signed mixture of product thermal
states; side B then receives a phase-noise displacement (mean-field leak of
strength gamma and phase spread sigma_phi) and is analyzed with click
detectors at angle theta_b.  Outcome +1 on either side means "orthogonal
detector fired, main detector silent"; outcome -1 means the main detector
fired.  The Gaussian averages over thermal modes and phase jitter have exact
closed forms, so ``joint_probabilities`` is analytic; ``monte_carlo_oracle``
re-estimates the same four joints by direct sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fock import TAU_NUM


#: lab analyzer settings (a1, a2, b1, b2) of the CHSH test, in degrees
CHSH_SETTINGS_DEG = (45.0, 0.0, 22.5, 67.5)
CHSH_SETTINGS = tuple(np.deg2rad(CHSH_SETTINGS_DEG))


class ModelInconsistencyError(ArithmeticError):
    """A quantity that must be a probability fell materially outside [0, 1]."""


@dataclass(frozen=True)
class DetailedParams:
    """Source, propagation and detection parameters of the detailed model.

    ``r`` is the amplitude remainder of the herald tap: a herald efficiency
    eta_A corresponds to r = sqrt(1 - eta_A).  ``g_reading`` selects which
    exponent-damping coefficient the double-click factor uses; the printed
    forms disagree and ``per_mode`` is the one the sampling oracle confirms.
    """

    g: float = 0.2
    r: float = 0.9
    eta_d: float = 0.35
    p_dc: float = 1e-4
    t1: float = 0.995
    t2: float = 0.995
    eta_c: float = 0.5
    gamma: float = 2.0
    sigma_phi: float = math.sqrt(2.0 * 0.0015)
    g_reading: str = "per_mode"

    def __post_init__(self):
        if self.g < 0 or not 0.0 <= self.r <= 1.0:
            raise ValueError("need g >= 0 and 0 <= r <= 1")
        for name in ("eta_d", "p_dc", "t1", "t2", "eta_c"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.sigma_phi < 0:
            raise ValueError("sigma_phi must be nonnegative")
        if self.g_reading not in ("per_mode", "projected"):
            raise ValueError("g_reading must be 'per_mode' or 'projected'")


@dataclass(frozen=True)
class JointProbabilities:
    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p_pp, self.p_pm, self.p_mp, self.p_mm])

    def total(self) -> float:
        return float(self.as_array().sum())

    def renormalized(self) -> "JointProbabilities":
        s = self.total()
        if s <= 0:
            raise ModelInconsistencyError("joint probabilities sum to zero")
        return JointProbabilities(*(self.as_array() / s))

    def correlator(self) -> float:
        p = self.renormalized()
        return p.p_pp + p.p_mm - p.p_pm - p.p_mp


def thermal_means(g: float, r: float) -> tuple[float, float]:
    """Mean photon numbers of the herald-side conditional thermals.

    The unconditional marginal is thermal with nbar; weighting by no-click on
    a tap of amplitude remainder r rescales the Boltzmann ratio tanh(g)^2 to
    (r tanh g)^2, giving the colder mean mbar.
    """
    tg = math.tanh(g)
    nbar = tg**2 / (1.0 - tg**2)
    mbar = (r * tg) ** 2 / (1.0 - (r * tg) ** 2)
    return nbar, mbar


def herald_weights(g: float, r: float, p_dc: float) -> tuple[float, float]:
    tg = math.tanh(g)
    w1 = (1.0 - p_dc) * (1.0 - tg**2) / (1.0 - (r * tg) ** 2)
    return w1, w1**2


def herald_probability(g: float, r: float, p_dc: float) -> float:
    w1, w2 = herald_weights(g, r, p_dc)
    return w1 - w2


def _derived(p: DetailedParams):
    nbar, mbar = thermal_means(p.g, p.r)
    eta = p.eta_d * p.t1**2 * p.t2**2 * p.eta_c
    eps = p.sigma_phi**2 / 2.0
    t_amp = p.t1 * p.t2 * math.sqrt(p.eta_c)
    w1, w2 = herald_weights(p.g, p.r, p.p_dc)
    return nbar, mbar, eta, eps, t_amp, w1, w2


def _f_factor(nu_b, nu_p, th_a, th_b, p: DetailedParams, eta: float,
              eps: float) -> float:
    """E[no-click on the main detector] over thermal modes and phase jitter.

    ``eta`` and ``eps`` are the overall efficiency and the phase-jitter
    exponent of ``_derived(p)``.
    """
    d = 1.0 + (math.cos(th_b) ** 2 * nu_b + math.sin(th_b) ** 2 * nu_p) * eta
    zeta = p.t2**2 * p.gamma**2 * p.eta_d * math.cos(th_a - th_b) ** 2 / d
    return (1.0 / d) / math.sqrt(1.0 + 4.0 * zeta * eps)


def _g_factor(nu_b, nu_p, th_a, th_b, p: DetailedParams, eta: float,
              eps: float) -> float:
    """E[no click on either detector]; arguments as for ``_f_factor``."""
    gg = 1.0 / ((1.0 + nu_b * eta) * (1.0 + nu_p * eta))
    if p.g_reading == "per_mode":
        z = p.t2**2 * p.gamma**2 * p.eta_d * (
            math.cos(th_a) ** 2 / (1.0 + nu_b * eta)
            + math.sin(th_a) ** 2 / (1.0 + nu_p * eta)
        )
    else:
        d = 1.0 + (math.cos(th_b) ** 2 * nu_b + math.sin(th_b) ** 2 * nu_p) * eta
        z = p.t2**2 * p.gamma**2 * p.eta_d * math.cos(th_a - th_b) ** 2 / d
    return gg / math.sqrt(1.0 + 4.0 * z * eps)


def joint_probabilities(th_a: float, th_b: float,
                        p: DetailedParams) -> JointProbabilities:
    """Raw joint outcome probabilities P(A = +-1, B = +-1).

    ``th_a`` is the displacement axis on side A, ``th_b`` the analyzer angle
    on side B measured in the displacement-matched frame.  The four raw
    joints need not sum to one because double-no-click rounds are dropped.
    """
    nbar, mbar, eta, eps, _, w1, w2 = _derived(p)

    def f_plus(nb, np_):
        return (_f_factor(nb, np_, th_a, th_b, p, eta, eps)
                - _g_factor(nb, np_, th_a, th_b, p, eta, eps))

    def f_minus(nb, np_):
        return 1.0 - _f_factor(nb, np_, th_a, th_b, p, eta, eps)

    vals = np.array([
        w1 * f_plus(nbar, mbar) - w2 * f_plus(mbar, mbar),
        w1 * f_minus(nbar, mbar) - w2 * f_minus(mbar, mbar),
        f_plus(nbar, nbar) - w1 * f_plus(nbar, mbar),
        f_minus(nbar, nbar) - w1 * f_minus(nbar, mbar),
    ])
    if np.any(vals < -TAU_NUM) or np.any(vals > 1.0 + TAU_NUM):
        raise ModelInconsistencyError(f"joint probabilities out of range: {vals}")
    vals = np.clip(vals, 0.0, 1.0)
    return JointProbabilities(*vals)


@dataclass(frozen=True)
class OracleEstimate:
    joints: JointProbabilities
    errors: JointProbabilities


def monte_carlo_oracle(th_a: float, th_b: float, p: DetailedParams,
                       n_samples: int = 10**5, seed: int = 0) -> OracleEstimate:
    """Sampling estimate of the four joints with standard errors.

    Thermal modes are complex normals, the leak phase is N(0, sigma_phi);
    Bob's outcome probabilities are computed exactly per sample, so the only
    noise is over the Gaussian draws.  The three thermal combinations are
    estimated separately and combined with the herald weights, errors in
    quadrature.
    """
    nbar, mbar, _, _, t_amp, w1, w2 = _derived(p)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    est = {}
    for key, (vb, vp) in {"nm": (nbar, mbar), "mm": (mbar, mbar),
                          "nn": (nbar, nbar)}.items():
        a = rng.normal(0, math.sqrt(vb / 2), n_samples) \
            + 1j * rng.normal(0, math.sqrt(vb / 2), n_samples)
        b = rng.normal(0, math.sqrt(vp / 2), n_samples) \
            + 1j * rng.normal(0, math.sqrt(vp / 2), n_samples)
        phi = rng.normal(0, p.sigma_phi, n_samples)
        m = 1j * p.t2 * p.gamma * phi
        a_hat = t_amp * a + math.cos(th_a) * m
        b_hat = t_amp * b + math.sin(th_a) * m
        c_main = math.cos(th_b) * a_hat + math.sin(th_b) * b_hat
        c_orth = math.sin(th_b) * a_hat - math.cos(th_b) * b_hat
        pnc_main = (1.0 - p.p_dc) * np.exp(-np.abs(c_main) ** 2 * p.eta_d)
        pnc_orth = (1.0 - p.p_dc) * np.exp(-np.abs(c_orth) ** 2 * p.eta_d)
        b_plus = pnc_main * (1.0 - pnc_orth)
        b_minus = 1.0 - pnc_main
        est[key] = {
            "fp": b_plus.mean(), "fp_se": b_plus.std(ddof=1) / math.sqrt(n_samples),
            "fm": b_minus.mean(), "fm_se": b_minus.std(ddof=1) / math.sqrt(n_samples),
        }

    def combine(field, w_nm, w_mm, w_nn):
        v = w_nm * est["nm"][field] + w_mm * est["mm"][field] \
            + w_nn * est["nn"][field]
        se = math.sqrt((w_nm * est["nm"][field + "_se"]) ** 2
                       + (w_mm * est["mm"][field + "_se"]) ** 2
                       + (w_nn * est["nn"][field + "_se"]) ** 2)
        return v, se

    pp = combine("fp", w1, -w2, 0.0)
    pm = combine("fm", w1, -w2, 0.0)
    mp = combine("fp", -w1, 0.0, 1.0)
    mm = combine("fm", -w1, 0.0, 1.0)
    return OracleEstimate(
        joints=JointProbabilities(pp[0], pm[0], mp[0], mm[0]),
        errors=JointProbabilities(pp[1], pm[1], mp[1], mm[1]),
    )


def chsh_from_detailed(settings, p: DetailedParams) -> float:
    """CHSH S for lab analyzer settings (a1, a2, b1, b2) in radians.

    Lab angles map onto the model as th_a = a and th_b = b - a (side B is
    analyzed in the frame of side A's displacement axis).
    """
    a1, a2, b1, b2 = settings

    def corr(a, b):
        return joint_probabilities(a, b - a, p).correlator()

    return abs(corr(a1, b1) + corr(a1, b2) + corr(a2, b1) - corr(a2, b2))


def detailed_chsh_curve(gammas, p: DetailedParams) -> np.ndarray:
    """CHSH S at the lab settings for every leak gain of ``gammas``."""
    return np.array([
        chsh_from_detailed(CHSH_SETTINGS, replace(p, gamma=float(gm))) for gm in gammas
    ])
