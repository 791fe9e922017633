"""Fast self-consistency checks across the package, one named result each.

These are the invariants the physics guarantees exactly (up to numerical
tolerance); any failure means a broken build rather than a bad parameter
choice.  Most checks exercise code the subcommands run: the splitter's
photon-number blocks, the closed-form displaced states, the hom coincidence
function and the model's closed forms.  ``memory-null-residual`` and
``loop-noise-ratio`` exercise the storage-loop closed forms in ``noise``,
which only ``validate`` runs.  The whole battery runs in well under a second.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, hom, macro, noise, polarization, ranges, spdc

RT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _beamsplitter_unitarity():
    n_max = 12
    resid = max(float(np.max(np.abs(u.conj().T @ u - np.eye(n_a.size))))
                for n_a, u, _ in fock.splitter_blocks(n_max))
    return resid < 1e-10, (f"max |U_N^dag U_N - I| = {resid:.3e} over the "
                           f"blocks N = 0..{2 * n_max} at n_max {n_max}")


def _displacement_inverse():
    # D(-a) D(a) = D(a)^dag D(a): on the span of |0> and |1>, the only levels
    # the model displaces, it is the Gram matrix of D(a)|0> and D(a)|1>
    worst = 0.0
    for alpha, n_max in ((0.7, 60), (math.sqrt(47.0), macro.default_n_max(48.0))):
        zero = fock.coherent_amplitudes(alpha, n_max)
        cols = np.stack([zero, fock.displaced_single_photon(alpha, zero)])
        worst = max(worst, float(np.max(np.abs(cols @ cols.T - np.eye(2)))))
    return worst < 1e-10, (f"max |D(-a)D(a) - I| = {worst:.3e} on levels 0 and 1 "
                           "at a = 0.7 and sqrt 47")


def _bell_chsh():
    bell = polarization.bell_state()
    s = polarization.chsh(lambda a, b: polarization.correlator(bell, a, b))
    dev = abs(s - 2.0 * RT2)
    return dev < 1e-12, f"|S - 2 sqrt 2| = {dev:.3e}"


def _werner_witnesses():
    worst = 0.0
    for w in (0.2, 0.6, 0.94):
        rho = polarization.werner_state(w)
        s, ppt, conc = noise.werner_witnesses(w)
        worst = max(
            worst,
            abs(polarization.chsh_maximum(rho) - s),
            abs(polarization.ppt_min_eigenvalue(rho) - ppt),
            abs(polarization.concurrence(rho) - conc),
        )
    return worst < 1e-10, f"worst closed-form deviation = {worst:.3e}"


def _poisson_series():
    p = ranges.ExperimentParams()
    worst = 0.0
    for mu in (0.5, 13.3, 86.0):
        lam = 2.0 * mu * p.eta * (1.0 - p.vis)
        n = np.arange(0, 200)
        series = float(np.sum(fock.poisson_pmf(mu, 199) * (1.0 - lam / mu) ** n))
        worst = max(worst, abs(noise.noise_click_prob(mu, p.eta, p.vis)
                               - (1.0 - series)))
    return worst < 1e-12, f"worst series deviation = {worst:.3e}"


def _guessing_monotone():
    vals = [macro.window_guessing_probability(RT2**2, s) for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
    diffs = np.diff(vals)
    return bool(np.all(diffs <= 1e-12)), f"max increase = {float(diffs.max()):.3e}"


def _memory_null_residual():
    resid = noise.back_displacement_residual(1.3 + 0.2j, math.pi,
                                             ranges.ExperimentParams())
    return resid < 1e-12, f"residual at phi = pi is {resid:.3e}"


def _loop_noise_ratio():
    params = ranges.ExperimentParams()
    alpha, sigma = 2.0, 0.2
    mean_resid = noise.mean_residual_photons(alpha, sigma, params)
    one_minus_v = 1.0 - noise.visibility_from_errors(0.0, sigma)
    ratio = mean_resid / (2.0 * alpha**2 * params.eta * one_minus_v)
    target = 2.0 * (1.0 - params.eta_abs)
    ok = abs(ratio - target) <= 0.1 * target
    return ok, f"residual/leak-rate ratio = {ratio:.4f}, expected {target:.4f}"


def _detailed_joints():
    th = np.deg2rad(ranges.GRID_DEG)
    joints = spdc.joints(th[:, None], th[None, :], ranges.DetailedParams())
    worst = float(np.max(np.abs(spdc.renormalized(joints).sum(axis=-1) - 1.0)))
    return worst < 1e-12, f"worst renormalized-sum deviation = {worst:.3e}"


def _hom_dip():
    one = np.zeros(5)
    one[1] = 1.0
    c = hom.coincidence_from_joint(one, one, ranges.ClickDetector(1.0, 0.0))
    return abs(c) < 1e-12, f"two-photon coincidence = {c:.3e}"


CHECKS = (
    ("beamsplitter-unitarity", _beamsplitter_unitarity),
    ("displacement-inverse", _displacement_inverse),
    ("bell-chsh", _bell_chsh),
    ("werner-witnesses", _werner_witnesses),
    ("poisson-series", _poisson_series),
    ("guessing-monotone", _guessing_monotone),
    ("memory-null-residual", _memory_null_residual),
    ("loop-noise-ratio", _loop_noise_ratio),
    ("detailed-joints", _detailed_joints),
    ("hom-dip", _hom_dip),
)


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(ok), detail))
    return results
