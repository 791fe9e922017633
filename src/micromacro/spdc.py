"""Detailed source model: double-pair emission, herald conditioning, leakage.

Two equal-gain two-mode squeezers populate the polarization pairs
(a, b_perp) and (a_perp, b).  A click/no-click herald on the two analyzer
outputs of side A leaves side B in a signed mixture of product thermal
states; side B then receives a phase-noise displacement (mean-field leak of
strength gamma and phase spread sigma_phi) and is analyzed with click
detectors at angle theta_b.  Outcome +1 on either side means "orthogonal
detector fired, main detector silent"; outcome -1 means the main detector
fired.  The Gaussian averages over thermal modes and phase jitter have exact
closed forms in log form, so ``joints`` gives the four joints analytically,
broadcast over arrays of (theta_a, theta_b, gamma); ``monte_carlo_oracle``
re-estimates them by sampling the leak-coupled imaginary quadratures of side
B's detector amplitudes, with the real quadratures averaged exactly.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .polarization import TAU_NUM, chsh
from .ranges import DetailedParams


class ModelInconsistencyError(ArithmeticError):
    """A quantity that must be a probability fell materially outside [0, 1]."""


def renormalized(joints: np.ndarray) -> np.ndarray:
    """(..., 4) raw joints divided by their sum."""
    s = joints.sum(axis=-1, keepdims=True)
    if np.any(s <= 0):
        raise ModelInconsistencyError(
            "joint probabilities sum to zero: side B never clicks (detailed.eta_d or "
            "detailed.t2 is 0, or so small that the joints round to 0; or one of "
            "detailed.g, detailed.t1 and detailed.eta_c is 0 and so is detailed.gamma "
            "or detailed.sigma_phi) or side A never heralds (detailed.p_dc 0 with "
            "detailed.g 0 or detailed.r 1)")
    return joints / s


def correlator(joints: np.ndarray) -> np.ndarray:
    """E = P(++) + P(--) - P(+-) - P(-+) of (..., 4) raw joints, renormalized."""
    q = renormalized(joints)
    return q[..., 0] + q[..., 3] - q[..., 1] - q[..., 2]


@dataclass(frozen=True)
class JointProbabilities:
    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p_pp, self.p_pm, self.p_mp, self.p_mm])


def _derived(p: DetailedParams) -> tuple[np.ndarray, np.ndarray]:
    """Side B's thermal pairs, (nu_b, nu_p) per row, and the herald table:
    rows A = +1 and A = -1 of the joints, columns weighing the pairs.  Each
    squeezer's marginal is thermal with nbar = s = sinh^2 g; no click on the
    herald tap of amplitude remainder r scales its Boltzmann ratio tanh^2 g by
    r^2, so with D = 1 + (1 - r)(1 + r) s the colder mean is mbar = r^2 s / D,
    w1 = (1 - p_dc) / D and w2 = w1^2: no subtraction, unlike the tanh forms."""
    s = math.sinh(p.g) ** 2
    d = 1.0 + (1.0 - p.r) * (1.0 + p.r) * s
    nbar, mbar, w1 = s, p.r**2 * s / d, (1.0 - p.p_dc) / d
    return (np.array([[nbar, mbar], [mbar, mbar], [nbar, nbar]]),
            np.array([[w1, -w1**2, 0.0], [-w1, 0.0, 1.0]]))


def herald_probability(p: DetailedParams) -> float:
    """P(A = +1) = w1 - w2: row A = +1 of the herald table, summed."""
    return float(_derived(p)[1][0].sum())


def _herald_sum(plus, minus, rows: np.ndarray, quadrature: bool = False) -> np.ndarray:
    """The joints pp, pm, mp, mm (..., 4) from side B's per-pair P(B = +1)
    and P(B = -1) (..., 3), weighed by the herald ``rows`` and summed in pair
    order; with ``quadrature``, standard errors: root of the summed squares."""
    terms = np.repeat(rows, 2, axis=0) * np.stack([plus, minus] * 2, axis=-2)
    if quadrature:
        return np.sqrt(_sq(terms).sum(axis=-1))
    return terms.sum(axis=-1)


def _sq(x):
    """x**2 rounded as Python's float power rounds it (C ``pow``), which
    np.square's x * x misses in the last bit about once in a thousand."""
    return np.float_power(x, 2)


def _no_click(nu_b, nu_p, th_a, th_b, p: DetailedParams, gamma):
    """log F and log(G / F), F = E[no click on the main detector] and G =
    E[no click on either detector] over side B's thermal modes of means
    ``nu_b``, ``nu_p`` and the phase jitter, broadcast over all arguments but
    ``p``; in G each thermal mode damps the leak exponent on its own axis, as
    sampling confirms.  Each log1p takes a sum of positive terms (x_b and o
    the thermal light on the main and orthogonal detector, m and v the leak),
    so F and G / F keep their digits within rounding of 1, where log G -
    log F would lose the orthogonal light below the leak's rounding."""
    eta = p.eta_d * p.t1**2 * p.t2**2 * p.eta_c
    eps4_leak = 4.0 * (p.sigma_phi**2 / 2.0) * (p.t2**2 * _sq(gamma) * p.eta_d)
    cb, sb = np.cos(th_b), np.sin(th_b)
    x_b = (_sq(cb) * nu_b + _sq(sb) * nu_p) * eta
    o = (_sq(sb) * nu_b + _sq(cb) * nu_p + nu_b * nu_p * eta) * eta
    m = eps4_leak * _sq(np.cos(th_a - th_b))
    v = np.sin(th_a - th_b) + eta * (np.sin(th_a) * cb * nu_b - np.cos(th_a) * sb * nu_p)
    log_gf = -np.log1p(o / (1.0 + x_b)) - 0.5 * np.log1p(
        eps4_leak * _sq(v) / ((1.0 + x_b + o) * (1.0 + x_b + m)))
    return -np.log1p(x_b) - 0.5 * np.log1p(m / (1.0 + x_b)), log_gf


def _finite(th, name: str) -> np.ndarray:
    th = np.asarray(th, dtype=float)
    if not np.isfinite(th).all():
        raise ValueError(f"{name}={th[~np.isfinite(th)][0]} must be finite")
    return th


def joints(th_a, th_b, p: DetailedParams, gamma=None) -> np.ndarray:
    """Raw joint outcome probabilities P(A = +-1, B = +-1), in the order pp,
    pm, mp, mm along the last axis, broadcast over arrays of ``th_a``,
    ``th_b`` and the leak gain ``gamma`` (``p.gamma`` when None).

    ``th_a`` is the displacement axis on side A, ``th_b`` the analyzer angle
    on side B measured in the displacement-matched frame.  The four raw
    joints need not sum to one because double-no-click rounds are dropped.
    The herald rows still subtract per-pair terms that nearly cancel where
    the pairs' means nearly agree: at p_dc = 0, up to 6.0e-7 relative for g
    in [1e-4, 0.05] and 9.2e-6 for r = 1 - [1e-9, 1e-2].
    """
    th_a, th_b = _finite(th_a, "th_a"), _finite(th_b, "th_b")
    gamma = np.asarray(p.gamma if gamma is None else gamma, dtype=float)
    if gamma.size:  # the range holds every gain if it holds the extremes, which NaN takes
        for gm in (gamma.min(), gamma.max()):
            DetailedParams.range_of("gamma").check(float(gm), "gamma")
    pairs, rows = _derived(p)
    log_f, log_gf = _no_click(pairs[:, 0], pairs[:, 1], th_a[..., None], th_b[..., None], p,
                              gamma[..., None])
    # P(B = +1) = F - G and P(B = -1) = 1 - F per pair, with no subtraction
    vals = _herald_sum(-np.exp(log_f) * np.expm1(log_gf), -np.expm1(log_f), rows)
    # written so that a NaN joint fails the check too
    if not np.all((-TAU_NUM <= vals) & (vals <= 1.0 + TAU_NUM)):
        raise ModelInconsistencyError(f"joint probabilities out of range: {vals}")
    return np.clip(vals, 0.0, 1.0)


def joint_probabilities(th_a: float, th_b: float, p: DetailedParams) -> JointProbabilities:
    """``joints`` at one setting."""
    return JointProbabilities(*joints(th_a, th_b, p).tolist())


@dataclass(frozen=True)
class OracleEstimate:
    joints: JointProbabilities
    errors: JointProbabilities


#: samples per oracle block: a stream's (2, n) normals and (2k, n) quadratures
#: are drawn and mapped this many columns at a time, in buffers that stay in
#: cache, so memory does not grow with n_samples
ORACLE_BLOCK = 2**14


def _sampled_pairs(rng, chol: np.ndarray, log_weights: np.ndarray, n_samples: int,
                   eta: float) -> tuple:
    """Means and standard errors, two (2k,) arrays, of P(B = -1) and P(B = +1)
    for each of the k thermal pairs that share one stream.  ``chol`` stacks
    their (2, 2) Cholesky factors, which take the same (2, ORACLE_BLOCK)
    blocks of standard normals onto the imaginary parts y1, y2 of the main
    and orthogonal detector amplitudes, and ``log_weights`` their
    (log(q f_re), log(q g_re / f_re)), q = 1 - p_dc.  With
    l1 = log(q f_re) - eta y1^2 and l2 = log(q g_re / f_re) - eta y2^2,
    P(B = -1) = -expm1(l1) and P(B = +1) = -expm1(l2) (1 + expm1(l1)): no
    probability is 1 minus a number near 1, which lost its digits at small
    light (9 to 10 SE off the exact joints at t2 = 1e-7 and 2e4 samples).

    Each block's means and summed squared deviations are merged into running
    totals (Chan, Golub & LeVeque 1979), so only two buffers are allocated.
    """
    k = len(chol)
    size = min(n_samples, ORACLE_BLOCK)
    u_buf, y_buf = np.empty(2 * size), np.empty(2 * k * size)
    # running mean and summed squared deviations, rows as ``prob`` below
    mean, m2 = np.zeros(2 * k), np.zeros(2 * k)
    for start in range(0, n_samples, size):
        m = min(size, n_samples - start)
        u = u_buf[:2 * m].reshape(2, m)  # contiguous, as ``out=`` requires
        y = y_buf[:2 * k * m].reshape(k, 2, m)
        rng.standard_normal(out=u)
        np.matmul(chol, u, out=y)
        y *= y
        y *= -eta
        y += log_weights[:, :, None]
        np.expm1(y, out=y)  # expm1(l1), expm1(l2) per pair
        e1 = u_buf[:k * m].reshape(k, m)  # the normals are spent
        np.add(y[:, 0], 1.0, out=e1)
        y[:, 1] *= e1
        np.negative(y, out=y)
        prob = y.reshape(2 * k, m)  # rows P(B = -1), P(B = +1) per pair
        block_mean = prob.mean(axis=1)
        prob -= block_mean[:, None]
        prob *= prob
        delta = block_mean - mean
        mean += delta * (m / (start + m))
        m2 += prob.sum(axis=1) + delta**2 * (start * m / (start + m))
    return mean, np.sqrt(m2 / (n_samples - 1) / n_samples)


def monte_carlo_oracle(th_a: float, th_b: float, p: DetailedParams,
                       n_samples: int = 10**5, seed: int = 0) -> OracleEstimate:
    """Sampling estimate of the four joints with standard errors.

    Thermal modes are complex normals, the leak phase is N(0, sigma_phi);
    with t the amplitude transmission and k = t2 gamma sigma_phi,

        c_main = t (cos th_b a + sin th_b b) + i k cos(th_a - th_b) phi
        c_orth = t (sin th_b a - cos th_b b) + i k sin(th_b - th_a) phi.

    The real parts are independent of the imaginary parts, which carry the
    leak, and exp(-eta_d |c|^2) factorizes over the two, so the real parts
    are averaged exactly (conditioning keeps each mean and raises no
    variance).  For a thermal pair (nu_b, nu_p), with ta^2 = t^2 nu_b / 2 and
    tb^2 = t^2 nu_p / 2, Re c_main gives f_re = (1 + 2 eta_d (cb^2 ta^2 +
    sb^2 tb^2))^(-1/2), and both real parts, [[cb, sb], [sb, -cb]] being
    orthogonal, g_re = ((1 + 2 eta_d ta^2)(1 + 2 eta_d tb^2))^(-1/2).  The
    imaginary parts are drawn from two standard normals through the lower
    Cholesky factor of their covariance, and Bob's outcome probabilities
    given them are exact (``_sampled_pairs``).  The three thermal pairs are
    estimated separately and combined by the herald table, errors in
    quadrature.

    Pair 0 (nbar, mbar) meets pair 1 in the A = +1 joints and pair 2 in the
    A = -1 joints, but pairs 1 and 2 never meet: the herald table gives
    pair 2 zero weight in row A = +1 and pair 1 zero weight in row A = -1.
    So pairs 1 and 2 may read the same normals and each joint still sums
    two independent estimates, which keeps its quadrature error exact.
    Two streams, children 0 and 1 of ``SeedSequence([seed]).spawn(2)``
    through SFC64 generators, feed pair 0 and pairs 1 and 2, in blocks of
    (2, ORACLE_BLOCK) standard normals: 4 draws per sample.  Pair 0 runs on
    one worker thread while the caller runs the other stream; each stream
    has one owner, so the result does not depend on scheduling.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples = {n_samples}: a standard error needs >= 2")
    _finite(th_a, "th_a"), _finite(th_b, "th_b")
    pairs, rows = _derived(p)
    t_sq = (p.t1 * p.t2) ** 2 * p.eta_c
    cb, sb = math.cos(th_b), math.sin(th_b)
    k = p.t2 * p.gamma * p.sigma_phi
    k_main, k_orth = k * math.cos(th_a - th_b), k * math.sin(th_b - th_a)
    eta = p.eta_d
    log_q = math.log1p(-p.p_dc) if p.p_dc < 1.0 else -math.inf
    chol, log_weights = np.zeros((len(pairs), 2, 2)), np.empty((len(pairs), 2))
    for j, (vb, vp) in enumerate(pairs):
        ta_sq, tb_sq = t_sq * vb / 2, t_sq * vp / 2
        main_sq = cb**2 * ta_sq + sb**2 * tb_sq  # thermal variance of each part of c_main
        log_f_re = -0.5 * math.log1p(2.0 * eta * main_sq)
        log_g_re = -0.5 * (math.log1p(2.0 * eta * ta_sq) + math.log1p(2.0 * eta * tb_sq))
        l11 = math.sqrt(main_sq + k_main**2)
        # a singular C (no pairs, and no leak on c_main or none at all) takes
        # l21 = 0 where l11 = 0 and clamps c22 - l21^2, which rounds below 0
        l21 = (cb * sb * (ta_sq - tb_sq) + k_main * k_orth) / l11 if l11 > 0 else 0.0
        c22 = sb**2 * ta_sq + cb**2 * tb_sq + k_orth**2
        chol[j] = [[l11, 0.0], [l21, math.sqrt(max(c22 - l21**2, 0.0))]]
        log_weights[j] = log_q + log_f_re, log_q + log_g_re - log_f_re
    rngs = [np.random.Generator(np.random.SFC64(child))
            for child in np.random.SeedSequence([seed]).spawn(2)]
    worker_out = []  # pair 0's estimate, or the exception that ended it

    def run():
        try:
            worker_out.append(_sampled_pairs(rngs[0], chol[:1], log_weights[:1], n_samples,
                                             eta))
        except BaseException as exc:  # handed to the caller, which raises it
            worker_out.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    try:
        shared = _sampled_pairs(rngs[1], chol[1:], log_weights[1:], n_samples, eta)
    finally:
        worker.join()
    if isinstance(worker_out[0], BaseException):
        raise worker_out[0]
    # columns P(B = -1), P(B = +1), rows pairs 0, 1, 2
    mean, se = (np.concatenate(x).reshape(3, 2) for x in zip(worker_out[0], shared))
    return OracleEstimate(
        JointProbabilities(*_herald_sum(mean[:, 1], mean[:, 0], rows).tolist()),
        JointProbabilities(*_herald_sum(se[:, 1], se[:, 0], rows, quadrature=True).tolist()))


def detailed_chsh_curve(gammas, p: DetailedParams) -> np.ndarray:
    """CHSH S at the lab settings ``polarization.CHSH_SETTINGS`` for every leak
    gain of ``gammas``, each setting's correlators from one ``joints`` call over
    all of them.  Lab angles map onto the model as th_a = a and th_b = b - a
    (side B is analyzed in the frame of side A's displacement axis)."""
    return chsh(lambda a, b: correlator(joints(a, b - a, p, gammas)))
