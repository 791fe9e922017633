import math
from dataclasses import replace

import numpy as np
import pytest

from micromacro import spdc
from references import (conditional_state_coeffs, gauss_hermite_phase_average,
                        projected_g_factor, spdc_amplitudes, thermal_dist)


def brute_force_conditional(g, r, p_dc, n_max, herald=+1):
    """B-side photon-number weights C[n_b, n_bperp] jointly with the herald,
    directly from the four-mode amplitudes.  Herald +1 is (no click on a,
    click on a_perp); herald -1 is a click on a, whatever a_perp does."""
    c = spdc_amplitudes(g, n_max)
    eta_a = 1.0 - r**2
    out = np.zeros((n_max + 1, n_max + 1))
    for j in range(n_max + 1):          # photons in a (= b_perp)
        for k in range(n_max + 1):      # photons in a_perp (= b)
            w = c[j, k, k, j] ** 2
            p_noclick = (1.0 - p_dc) * (1.0 - eta_a) ** j
            p_click = 1.0 - (1.0 - p_dc) * (1.0 - eta_a) ** k
            out[k, j] += w * (p_noclick * p_click if herald > 0 else 1.0 - p_noclick)
    return out


@pytest.mark.parametrize("g", [0.1, 0.3])
def test_conditional_state_matches_brute_force(g):
    r, p_dc, n_max = 0.9, 1e-4, 8
    closed = conditional_state_coeffs(g, r, p_dc, n_max)
    brute = brute_force_conditional(g, r, p_dc, n_max)
    assert np.max(np.abs(closed - brute)) < 1e-14


@pytest.mark.parametrize("g", [0.2, 0.6])
@pytest.mark.parametrize("th_b", [0.0, math.pi / 2])
def test_joints_match_the_photon_number_brute_force(g, th_b):
    # without phase jitter the leak drops out, and at th_b = 0 (pi/2) the
    # main detector sees mode b (b_perp) alone: B = -1 when it clicks, +1
    # when only the other one does, each photon detected with probability eta
    p = spdc.DetailedParams(g=g, sigma_phi=0.0)
    eta = p.eta_d * p.t1**2 * p.t2**2 * p.eta_c
    n = np.arange(41)
    silent = (1.0 - eta) ** n
    b, b_perp = silent[:, None], silent[None, :]    # weights are [n_b, n_bperp]
    main, orth = (b, b_perp) if th_b == 0.0 else (b_perp, b)
    want = []
    for herald in (+1, -1):
        weights = brute_force_conditional(g, p.r, p.p_dc, 40, herald)
        want += [float(np.sum(weights * main * (1.0 - orth))),
                 float(np.sum(weights * (1.0 - main)))]
    got = spdc.joint_probabilities(0.3, th_b, p).as_array()
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("gamma, sigma_phi, eta_d", [(2.0, math.sqrt(0.003), 0.35),
                                                      (6.0, 0.4, 0.9)])
def test_jitter_factor_matches_the_phase_average(gamma, sigma_phi, eta_d):
    # a leak phase phi displaces the main mode by t2 gamma phi cos(th_a - th_b);
    # a thermal mode of detected mean nu then stays dark with probability
    # exp(-eta_d |displacement|^2 / d) / d, d = 1 + nu, averaged over phi.
    # 61 nodes leave 1e-7 at the strong leak (2 zeta sigma^2 ~ 7); 181 converge
    p = spdc.DetailedParams(gamma=gamma, sigma_phi=sigma_phi, eta_d=eta_d)
    eta = p.eta_d * p.t1**2 * p.t2**2 * p.eta_c
    for nu_b, nu_p, th_a, th_b in ((0.04, 0.03, 0.3, 0.9), (1.5, 0.2, 0.0, 0.0),
                                   (0.7, 0.7, 1.2, -0.4)):
        d = 1.0 + (math.cos(th_b) ** 2 * nu_b + math.sin(th_b) ** 2 * nu_p) * eta
        amp = p.t2 * p.gamma * math.cos(th_a - th_b)
        want = gauss_hermite_phase_average(
            lambda phi: math.exp(-p.eta_d * (amp * phi) ** 2 / d) / d, p.sigma_phi, 181)
        got = spdc._f_factor(nu_b, nu_p, th_a, th_b, p, eta, p.sigma_phi**2 / 2.0)
        assert abs(got - want) < 1e-12


def test_conditional_trace_is_herald_probability():
    g, r, p_dc = 0.3, 0.9, 1e-4
    coeffs = conditional_state_coeffs(g, r, p_dc, 120)
    assert abs(coeffs.sum() - spdc.herald_probability(g, r, p_dc)) < 1e-10
    assert spdc.herald_probability(g, r, p_dc) > 0.0


def test_near_ideal_limit_approaches_tsirelson():
    p = spdc.DetailedParams(g=0.05, r=math.sqrt(1.0 - 0.98), eta_d=0.98,
                            p_dc=0.0, t1=1.0, t2=1.0, eta_c=1.0,
                            gamma=0.0, sigma_phi=0.0)
    s = spdc.chsh_from_detailed(p)
    assert abs(s - 2.8235) < 1e-3
    assert abs(s - 2.0 * math.sqrt(2.0)) < 0.02


def test_gamma_irrelevant_without_phase_jitter():
    base = replace(spdc.DetailedParams(), sigma_phi=0.0)
    vals = [spdc.chsh_from_detailed(replace(base, gamma=g))
            for g in (0.0, 2.0, 6.0)]
    assert max(vals) - min(vals) < 1e-12


def test_chsh_decreases_with_leak_gain():
    curve = spdc.detailed_chsh_curve(np.linspace(0.0, 6.0, 7),
                                     spdc.DetailedParams())
    assert np.all(np.diff(curve) < 0.0)
    assert curve[0] > 2.6 and curve[-1] < 2.3


def test_joint_probability_structure():
    p = spdc.DetailedParams()
    joints = spdc.joint_probabilities(0.3, 0.9, p)
    assert np.all(joints.as_array() >= 0.0)
    assert joints.total() < 1.0  # double no-click rounds are dropped
    assert abs(joints.renormalized().total() - 1.0) < 1e-12
    assert -1.0 <= joints.correlator() <= 1.0


def test_blind_detectors_see_nothing():
    p = replace(spdc.DetailedParams(), eta_d=0.0, p_dc=0.0)
    joints = spdc.joint_probabilities(0.3, 0.9, p)
    assert np.max(joints.as_array()) <= 1e-15
    with pytest.raises(spdc.ModelInconsistencyError):
        joints.renormalized()


@pytest.mark.parametrize("th_a,th_b", [(0.3, 0.9), (np.pi / 4, -np.pi / 8)])
def test_monte_carlo_agrees_with_closed_form(th_a, th_b):
    p = spdc.DetailedParams()
    est = spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=40_000, seed=7)
    ana = spdc.joint_probabilities(th_a, th_b, p)
    dev = np.abs(est.joints.as_array() - ana.as_array())
    se = np.maximum(est.errors.as_array(), 1e-12)
    assert np.all(dev <= 4.0 * se)


def test_monte_carlo_error_scaling():
    p = spdc.DetailedParams()
    e1 = spdc.monte_carlo_oracle(0.3, 0.9, p, n_samples=20_000, seed=3)
    e2 = spdc.monte_carlo_oracle(0.3, 0.9, p, n_samples=80_000, seed=4)
    ratio = e2.errors.as_array() / e1.errors.as_array()
    assert np.all(ratio > 0.3) and np.all(ratio < 0.7)


def test_sampling_arbitrates_double_click_reading(monkeypatch):
    """The two printed no-click-damping coefficients disagree; only the
    per-mode one, the package's, survives a direct sampling check in a
    regime that amplifies the difference (asymmetric thermal means, strong
    leak).  The projected one is the reference ``projected_g_factor``."""
    p = spdc.DetailedParams(g=0.8, r=0.1, eta_d=0.9, p_dc=0.0, t1=1.0, t2=1.0,
                            eta_c=1.0, gamma=2.0, sigma_phi=0.4)
    th_a, th_b = 0.0, math.pi / 3
    est = spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=100_000, seed=11)
    se = np.maximum(est.errors.as_array(), 1e-12)
    dev_pm = np.abs(est.joints.as_array()
                    - spdc.joint_probabilities(th_a, th_b, p).as_array())
    monkeypatch.setattr(spdc, "_g_factor", projected_g_factor)
    dev_pr = np.abs(est.joints.as_array()
                    - spdc.joint_probabilities(th_a, th_b, p).as_array())
    assert np.all(dev_pm <= 4.0 * se)
    assert np.max(dev_pr / se) > 20.0


def test_gauss_hermite_average():
    for c in (0.5, 3.0):
        for sigma in (0.2, 0.7):
            got = gauss_hermite_phase_average(
                lambda phi: math.exp(-c * phi**2), sigma)
            assert abs(got - 1.0 / math.sqrt(1.0 + 2.0 * c * sigma**2)) < 1e-12
    got = gauss_hermite_phase_average(math.cos, 0.5)
    assert abs(got - math.exp(-0.125)) < 1e-12
    assert gauss_hermite_phase_average(math.cos, 0.0) == 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        spdc.DetailedParams(g=-0.1)
    with pytest.raises(ValueError):
        spdc.DetailedParams(eta_d=1.5)
    with pytest.raises(ValueError):
        spdc.DetailedParams(sigma_phi=-1.0)


def test_thermal_dist_edges():
    d = thermal_dist(0.0, 5)
    assert d[0] == 1.0 and np.all(d[1:] == 0.0)
    d = thermal_dist(0.7, 400)
    assert abs(d.sum() - 1.0) < 1e-12
    assert abs(np.arange(401) @ d - 0.7) < 1e-10
