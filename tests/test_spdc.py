import hashlib
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from micromacro import polarization, ranges, spdc
from oracles import detailed_joints, herald
from references import (complex_monte_carlo_oracle, conditional_monte_carlo_oracle,
                        conditional_state_coeffs, gauss_hermite_phase_average,
                        projected_g_factor, scalar_joints, spdc_amplitudes,
                        thermal_dist)

#: the regime of ``test_sampling_arbitrates_double_click_reading``
STRONG_LEAK = spdc.DetailedParams(g=0.8, r=0.1, eta_d=0.9, p_dc=0.0, t1=1.0,
                                  t2=1.0, eta_c=1.0, gamma=2.0, sigma_phi=0.4)


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
        log_f, _ = spdc._no_click(nu_b, nu_p, th_a, th_b, p, p.gamma)
        assert abs(math.exp(log_f) - want) < 1e-12


def test_conditional_trace_is_herald_probability():
    g, r, p_dc = 0.3, 0.9, 1e-4
    coeffs = conditional_state_coeffs(g, r, p_dc, 120)
    herald = spdc.herald_probability(spdc.DetailedParams(g=g, r=r, p_dc=p_dc))
    assert abs(coeffs.sum() - herald) < 1e-10
    assert herald > 0.0


def test_near_ideal_limit_approaches_tsirelson():
    p = spdc.DetailedParams(g=0.05, r=math.sqrt(1.0 - 0.98), eta_d=0.98,
                            p_dc=0.0, t1=1.0, t2=1.0, eta_c=1.0,
                            gamma=0.0, sigma_phi=0.0)
    s = float(spdc.detailed_chsh_curve(p.gamma, p))
    assert abs(s - 2.8235) < 1e-3
    assert abs(s - 2.0 * math.sqrt(2.0)) < 0.02


def test_gamma_irrelevant_without_phase_jitter():
    base = replace(spdc.DetailedParams(), sigma_phi=0.0)
    vals = spdc.detailed_chsh_curve(np.array([0.0, 2.0, 6.0]), base)
    assert max(vals) - min(vals) < 1e-12


def test_chsh_decreases_with_leak_gain():
    curve = spdc.detailed_chsh_curve(np.linspace(0.0, 6.0, 7),
                                     spdc.DetailedParams())
    assert np.all(np.diff(curve) < 0.0)
    assert curve[0] > 2.6 and curve[-1] < 2.3


def test_joint_probability_structure():
    p = spdc.DetailedParams()
    joints = spdc.joints(0.3, 0.9, p)
    assert joints.shape == (4,) and np.all(joints >= 0.0)
    assert joints.sum() < 1.0  # double no-click rounds are dropped
    assert abs(spdc.renormalized(joints).sum() - 1.0) < 1e-12
    assert -1.0 <= spdc.correlator(joints) <= 1.0


def test_blind_detectors_see_nothing():
    p = replace(spdc.DetailedParams(), eta_d=0.0, p_dc=0.0)
    joints = spdc.joints(0.3, 0.9, p)
    assert np.max(joints) <= 1e-15
    with pytest.raises(spdc.ModelInconsistencyError):
        spdc.correlator(joints)


@pytest.mark.parametrize("name, th_a, th_b", [
    ("th_a", math.nan, 0.9), ("th_b", 0.3, math.nan), ("th_a", math.inf, 0.9),
    ("th_b", 0.3, -math.inf)])
def test_non_finite_angles_are_rejected(name, th_a, th_b):
    p = spdc.DetailedParams()
    with pytest.raises(ValueError, match=f"{name}=.* must be finite"):
        spdc.joint_probabilities(th_a, th_b, p)
    with pytest.raises(ValueError, match=f"{name}=.* must be finite"):
        spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=100)


@pytest.mark.parametrize("gamma, message", [
    (-3.0, "gamma=-3.0 must be in [0, 1000]"),
    (2e3, "gamma=2000.0 must be in [0, 1000]"),
    (math.nan, "gamma=nan must be finite")])
def test_curve_checks_each_leak_gain(gamma, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        spdc.detailed_chsh_curve([1.0, gamma], spdc.DetailedParams())


#: parameter sets on which the array form must give the scalar reference's bits
REFERENCE_PARAMS = {"default": spdc.DetailedParams(), "strong_leak": STRONG_LEAK,
                    **{f"p_dc={x:g}": replace(spdc.DetailedParams(), p_dc=x)
                       for x in (0.0, 0.05, 0.3)}}


@pytest.mark.parametrize("name", sorted(REFERENCE_PARAMS))
def test_joints_match_the_scalar_reference(name):
    p = REFERENCE_PARAMS[name]
    th = np.radians(ranges.GRID_DEG)
    got = spdc.joints(th[:, None], th[None, :], p)
    want = np.array([[scalar_joints(a, b, p) for b in th] for a in th])
    assert got.shape == (4, 4, 4) and got.tobytes() == want.tobytes()

    a1, a2, b1, b2 = polarization.CHSH_SETTINGS
    a, b = np.array([a1, a1, a2, a2]), np.array([b1, b2, b1, b2])
    gammas = np.linspace(0.0, 4.0, 81)
    got = spdc.joints(a, b - a, p, gammas[:, None])
    want = np.array([[scalar_joints(x, y - x, replace(p, gamma=gm)) for x, y in zip(a, b)]
                     for gm in gammas])
    assert got.shape == (81, 4, 4) and got.tobytes() == want.tobytes()

    # a square rounded as x * x instead of C pow moves the strong-leak
    # joints in the last bit at about 1 in 1000 random settings
    th_a, th_b = np.random.default_rng(29).uniform(-7.0, 7.0, (2, 5000))
    got = spdc.joints(th_a, th_b, p)
    want = np.array([scalar_joints(x, y, p) for x, y in zip(th_a, th_b)])
    assert got.shape == (5000, 4) and got.tobytes() == want.tobytes()


def _determinant_oracle_gap(p) -> float:
    """Worst relative gap between the joints and the determinant oracle on
    the 16-point grid."""
    th = np.radians(ranges.GRID_DEG)
    got = spdc.joints(th[:, None], th[None, :], p)
    want = np.array([[[float(v) for v in detailed_joints(a, b, p)] for b in th]
                     for a in th])
    return float(np.max(np.abs(got - want) / want))


#: without dark counts, at efficiencies that 1 - F and F - G fall with:
#: t2 = 1e-7, eta_d = 1e-9, and draws of t2, eta_d and eta_c log-uniform over
#: [1e-9, 1] and of t1 over [1e-6, 1]
SMALL_LIGHT = {
    "t2=1e-07": replace(spdc.DetailedParams(), p_dc=0.0, t2=1e-7),
    "eta_d=1e-09": replace(spdc.DetailedParams(), p_dc=0.0, eta_d=1e-9),
    **{f"draw_{i}": replace(spdc.DetailedParams(), p_dc=0.0, t2=t2, eta_d=eta_d, eta_c=eta_c,
                            t1=t1)
       for i, (t2, eta_d, eta_c, t1) in enumerate(10.0 ** np.random.default_rng(2).uniform(
           [-9.0, -9.0, -9.0, -6.0], 0.0, (12, 4)))}}


@pytest.mark.parametrize("p", [replace(spdc.DetailedParams(), p_dc=0.0), STRONG_LEAK,
                               *SMALL_LIGHT.values()],
                         ids=["default_without_dark_counts", "strong_leak", *SMALL_LIGHT])
def test_joints_match_the_determinant_oracle_without_dark_counts(p):
    # 3.7e-14 at the default parameters, and 1.2e-13 at worst over 120
    # draws as in SMALL_LIGHT (seeds 2 and 3); 1 - F and F - G taken as
    # differences, joints read 0 at t2 = 1e-7, and log G - log F in place of
    # log(G / F) missed by up to 1.9 over 60 draws
    assert _determinant_oracle_gap(p) < 1e-10


@pytest.mark.parametrize("g", [0.0, 0.2, 2.0, 5.0])
@pytest.mark.parametrize("r", [0.0, 0.9, 1.0])
def test_herald_meets_the_tanh_form_at_40_digits(g, r):
    # the sinh^2 form subtracts nothing: within 4.3e-16 here, where the
    # tanh form in floats was off by up to 3.0e-13 at g = 5
    p = spdc.DetailedParams(g=g, r=r)
    pairs, rows = spdc._derived(p)
    got = (pairs[0, 0], pairs[0, 1], rows[0, 0])  # nbar, mbar, w1
    for x, want in zip(got, herald(g, r, p.p_dc)):
        assert abs(x - want) <= 1e-15 * (abs(want) if want != 0 else 1.0)
    assert rows[0, 1] == -rows[0, 0] ** 2


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4, side B's dark counts in the closed form: spdc._no_click "
    "lacks one factor (1 - p_dc) per silent detector of side B, so at the "
    "default p_dc = 1e-4 the joints miss the oracle by 1.75e-2 relative"))
def test_joints_match_the_determinant_oracle():
    assert _determinant_oracle_gap(spdc.DetailedParams()) < 1e-10


def test_a_nan_joint_fails_the_range_check(monkeypatch):
    # the range check is written so that NaN is out of range
    no_click = spdc._no_click

    def nan_g(*args):
        log_f, log_gf = no_click(*args)
        return log_f, log_gf * math.nan

    monkeypatch.setattr(spdc, "_no_click", nan_g)
    with pytest.raises(spdc.ModelInconsistencyError, match="out of range"):
        spdc.joint_probabilities(0.3, 0.9, spdc.DetailedParams())


@pytest.mark.parametrize("th_a,th_b", [(0.3, 0.9), (np.pi / 4, -np.pi / 8)])
def test_monte_carlo_agrees_with_closed_form(th_a, th_b):
    p = spdc.DetailedParams()
    est = spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=40_000, seed=7)
    ana = spdc.joint_probabilities(th_a, th_b, p)
    dev = np.abs(est.joints.as_array() - ana.as_array())
    se = np.maximum(est.errors.as_array(), 1e-12)
    assert np.all(dev <= 4.0 * se)


@pytest.mark.xfail(strict=True, reason=(
    "spdc._no_click leaves out side B's dark counts, while "
    "monte_carlo_oracle multiplies each sampled no-click probability by "
    "1 - p_dc: the closed form's F lacks a factor (1 - p_dc) and its G a "
    "factor (1 - p_dc)^2"))
@pytest.mark.parametrize("p_dc", [0.05, 0.3])
@pytest.mark.parametrize("th_a,th_b", [(0.0, 0.0), (0.3, 0.9)])
def test_monte_carlo_agrees_with_closed_form_under_dark_counts(th_a, th_b, p_dc):
    # misses by 109 to 5,589 SE at seed 3; at p_dc = 0 and 1e-4 the same
    # comparison reads 0.55 to 0.98 SE
    p = replace(spdc.DetailedParams(), p_dc=p_dc)
    est = spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=100_000, seed=3)
    ana = spdc.joint_probabilities(th_a, th_b, p)
    dev = np.abs(est.joints.as_array() - ana.as_array())
    assert np.all(dev <= 6.0 * est.errors.as_array())


def test_monte_carlo_error_scaling():
    p = spdc.DetailedParams()
    e1 = spdc.monte_carlo_oracle(0.3, 0.9, p, n_samples=20_000, seed=3)
    e2 = spdc.monte_carlo_oracle(0.3, 0.9, p, n_samples=80_000, seed=4)
    ratio = e2.errors.as_array() / e1.errors.as_array()
    assert np.all(ratio > 0.3) and np.all(ratio < 0.7)


def test_sampling_arbitrates_double_click_reading():
    """The two printed no-click-damping coefficients disagree; only the
    per-mode one, the package's, survives a direct sampling check in a
    regime that amplifies the difference (asymmetric thermal means, strong
    leak).  The projected one is the reference ``projected_g_factor``."""
    p = STRONG_LEAK
    th_a, th_b = 0.0, math.pi / 3
    est = spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=100_000, seed=11)
    se = np.maximum(est.errors.as_array(), 1e-12)
    dev_pm = np.abs(est.joints.as_array() - spdc.joints(th_a, th_b, p))
    dev_pr = np.abs(est.joints.as_array()
                    - scalar_joints(th_a, th_b, p, g_factor=projected_g_factor))
    assert np.all(dev_pm <= 4.0 * se)
    assert np.max(dev_pr / se) > 20.0


@pytest.mark.parametrize("p", [spdc.DetailedParams(), STRONG_LEAK],
                         ids=["default", "strong_leak"])
@pytest.mark.parametrize("n_samples", [2, 777, 40_000, spdc.ORACLE_BLOCK,
                                       spdc.ORACLE_BLOCK + 1, 3 * spdc.ORACLE_BLOCK + 5])
@pytest.mark.parametrize("th_a,th_b", [(0.0, 0.0), (0.3, 0.9),
                                       (math.pi / 4, -math.pi / 8), (1.2, -0.4)])
def test_monte_carlo_matches_complex_reference(th_a, th_b, n_samples, p):
    # same seed, same normals: the hand-written Cholesky factor with
    # block-merged moments and np.linalg.cholesky on whole arrays differ
    # only by rounding (2.9e-13 relative at worst here)
    got = spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=n_samples, seed=13)
    want = conditional_monte_carlo_oracle(th_a, th_b, p, n_samples=n_samples, seed=13)
    for g, w in ((got.joints, want.joints), (got.errors, want.errors)):
        np.testing.assert_allclose(g.as_array(), w.as_array(), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_monte_carlo_keeps_its_digits_at_small_light(seed):
    # at t2 = 1e-7 side B sees under 1e-16 photons a round, so P(B = -1) is tiny;
    # formed as 1 - q f_re e1 it read 9.3 to 10.5 SE off the exact joints at
    # these seeds (32 SE at 2e5 samples), and from expm1 of the summed logs
    # 0.99 to 1.53 SE
    p = replace(spdc.DetailedParams(), t2=1e-7, p_dc=0.0)
    th = np.radians(ranges.GRID_DEG)
    for th_a in th:
        for th_b in th:
            est = spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=20_000, seed=seed)
            want = np.array([float(v) for v in detailed_joints(th_a, th_b, p)])
            dev = np.abs(est.joints.as_array() - want)
            assert np.all(dev <= 4.0 * est.errors.as_array()), (th_a, th_b)


@pytest.mark.parametrize("p", [spdc.DetailedParams(), STRONG_LEAK],
                         ids=["default", "strong_leak"])
def test_conditioning_agrees_with_the_direct_sampler(p):
    # averaging the real quadratures exactly keeps each mean and lowers no
    # variance: 0.70-0.92 of the direct sampler's errors on the default
    # grid, 0.73-0.99 at STRONG_LEAK, at 2e4 samples
    th = np.radians(ranges.GRID_DEG)
    for th_a in th:
        for th_b in th:
            got = spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=20_000, seed=21)
            want = complex_monte_carlo_oracle(th_a, th_b, p, n_samples=20_000, seed=21)
            g, w = got.joints.as_array(), want.joints.as_array()
            se, se_direct = got.errors.as_array(), want.errors.as_array()
            assert np.all(np.abs(g - w) <= 4.0 * np.hypot(se, se_direct))
            assert np.all(se <= 1.05 * se_direct)


@pytest.mark.parametrize("th_b", [0.0, math.pi / 2])
@pytest.mark.parametrize("params, offset", [
    (dict(g=0.0, gamma=0.0), 0.3), (dict(g=0.0), math.pi / 2),
    (dict(sigma_phi=0.0), 0.3), (dict(p_dc=1.0), 0.3)],
    ids=["no_pairs_no_leak", "no_pairs_leak_orthogonal", "no_jitter", "dark_count_certain"])
def test_monte_carlo_at_a_degenerate_covariance(params, offset, th_b):
    # with no pairs and no leak the imaginary parts' covariance is 0, and with
    # the leak orthogonal to the main detector its first row is 0 up to
    # cos(pi/2); the Cholesky factor must stay finite.  Where every sample is
    # the same, the errors are 0 or rounding-sized, and the joints meet the
    # 40-digit oracle to the herald sum's rounding.  At p_dc = 1 both sides'
    # detectors always fire: log(1 - p_dc) is -inf, and P(B = -1) = 1
    p = replace(spdc.DetailedParams(), **params)
    th_a = th_b + offset
    est = spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=20_000, seed=5)
    got, se = est.joints.as_array(), est.errors.as_array()
    want = np.array([float(v) for v in detailed_joints(th_a, th_b, p)])
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(se))
    assert np.all(np.abs(got - want) <= 4.0 * se + 1e-11 * np.abs(want))


@pytest.mark.parametrize("n_samples", [-1, 0, 1])
def test_monte_carlo_needs_two_samples(n_samples):
    with pytest.raises(ValueError, match=f"n_samples = {n_samples}"):
        spdc.monte_carlo_oracle(0.3, 0.9, spdc.DetailedParams(), n_samples=n_samples)


@pytest.mark.parametrize("n_samples", [200_000, 2_000_000])
def test_monte_carlo_peak_memory(n_samples):
    # two reused buffers per stream, (2 + 2) and (2 + 4) rows of
    # ORACLE_BLOCK, 1.25 MiB in all, whatever n_samples: the peak read 1.31
    # MiB, and 2.04 MiB in a first call in a fresh process, so 3 MiB leaves
    # about 1 MiB of margin; whole (5, n) and (4, n) blocks per pair peaked
    # at 13.7 MiB at 2e5 samples and 137 MiB at 2e6
    tracemalloc.start()
    try:
        spdc.monte_carlo_oracle(0.3, 0.9, spdc.DetailedParams(), n_samples=n_samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_monte_carlo_is_reproducible_across_threads():
    # each stream has one owner, so thread scheduling cannot move a bit; the
    # second call switches threads as often as the interpreter allows
    def bits():
        est = spdc.monte_carlo_oracle(0.3, 0.9, STRONG_LEAK, n_samples=50_000, seed=5)
        return np.concatenate([est.joints.as_array(), est.errors.as_array()]).tobytes()

    before = threading.active_count()
    first = bits()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        second = bits()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert first == second


def test_herald_table_keeps_pairs_1_and_2_apart():
    # the oracle feeds pairs 1 and 2 the same normals, which is sound only
    # while no joint weighs both; pair 0 is in every joint
    tables = [spdc._derived(p)[1] for p in (spdc.DetailedParams(), STRONG_LEAK,
                                            spdc.DetailedParams(g=2.0, r=0.3))]
    for plus, minus in tables:  # rows A = +1, A = -1
        assert plus[2] == 0.0 and minus[1] == 0.0
        assert plus[0] != 0.0 and minus[0] != 0.0


#: sha256 of the joints' and errors' float64 bytes at (0.3, 0.9), seed 17,
#: on both sides of one ORACLE_BLOCK
ORACLE_DIGESTS = {
    (2, "default"): "a1584eb4412019cb7c8287c7ccef2b7cf880389661c7eda30e8f32765a1b1943",
    (2, "strong_leak"): "e0418ed51bf73f24b432f2d170b3a76b44942c6936502c718b807d4f84615cd9",
    (1000, "default"): "a06dc14264b18cbc3a6eb2877d419423db7d8548dff755d430f6d31b82632843",
    (1000, "strong_leak"): "76279f1d6915761c1357af3b707ae847f83c4b4facfc3a272f144cab2a6983cc",
    (2**14, "default"): "02f0529329b9cf704c778e54c5f36fa16eac581621c26acf59f0e2682def298b",
    (2**14, "strong_leak"): "f9d18ff56066dbe6e7618657f21ee7260f1e84dbd581db58e788485ae42aa16e",
    (2**14 + 1, "default"): "b85b1219360852f386e14fef2040e3960b7e3c9210794abb5a06b30517dd6463",
    (2**14 + 1, "strong_leak"): "9572f230ad9a4534a8cb2940c0b20d6dcc59a2da3a4186ad523f21ea1db4a4b8",
}


@pytest.mark.parametrize("n_samples, name", sorted(ORACLE_DIGESTS))
def test_oracle_gives_the_pinned_bytes(n_samples, name):
    assert spdc.ORACLE_BLOCK == 2**14
    p = STRONG_LEAK if name == "strong_leak" else spdc.DetailedParams()
    est = spdc.monte_carlo_oracle(0.3, 0.9, p, n_samples=n_samples, seed=17)
    raw = np.concatenate([est.joints.as_array(), est.errors.as_array()]).tobytes()
    assert hashlib.sha256(raw).hexdigest() == ORACLE_DIGESTS[n_samples, name]


@pytest.mark.parametrize("failing_pairs", [1, 2], ids=["worker_stream", "caller_stream"])
def test_monte_carlo_raises_what_a_stream_raises(monkeypatch, failing_pairs):
    # the worker thread samples pair 0, the caller pairs 1 and 2
    class StreamFailure(RuntimeError):
        pass

    sampled_pairs = spdc._sampled_pairs

    def failing(rng, chol, weights, n_samples, eta):
        if len(chol) == failing_pairs:
            raise StreamFailure(f"{failing_pairs}-pair stream failed")
        return sampled_pairs(rng, chol, weights, n_samples, eta)

    before = threading.active_count()
    monkeypatch.setattr(spdc, "_sampled_pairs", failing)
    with pytest.raises(StreamFailure, match=f"{failing_pairs}-pair stream failed"):
        spdc.monte_carlo_oracle(0.3, 0.9, spdc.DetailedParams(), n_samples=1000)
    assert threading.active_count() == before


def _assert_calibrated(th_a, th_b, p, want):
    """The oracle's z-scores against ``want`` over 400 seeds have mean ~0
    and spread ~1."""
    z = []
    for seed in range(400):
        est = spdc.monte_carlo_oracle(th_a, th_b, p, n_samples=4000, seed=seed)
        z.append((est.joints.as_array() - want) / est.errors.as_array())
    z = np.array(z)
    assert np.all(np.abs(z.mean(axis=0)) < 0.2)
    assert np.all((z.std(axis=0) > 0.85) & (z.std(axis=0) < 1.15))


def test_monte_carlo_errors_are_calibrated():
    # the joints weigh pair 0 against pair 1 or 2 with opposite signs, so
    # pairs that meet in a joint and shared a stream would make the
    # quadrature errors wrong; a same-seed reference draws the same streams
    # and cannot see that
    p = spdc.DetailedParams()
    _assert_calibrated(0.3, 0.9, p, spdc.joint_probabilities(0.3, 0.9, p).as_array())


def test_monte_carlo_errors_are_calibrated_against_the_exact_joints():
    # without dark counts the 40-digit determinant form is exact, so no
    # closed-form defect can hide in the spread
    p = replace(spdc.DetailedParams(), p_dc=0.0)
    _assert_calibrated(0.3, 0.9, p, np.array([float(v) for v in detailed_joints(0.3, 0.9, p)]))


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
