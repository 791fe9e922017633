import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from micromacro import noise
from references import (PulseTrain, apply_phase, gauss_hermite_phase_average,
                        memory_pass, three_pulse_train)

PARAMS = noise.ExperimentParams()


def sigma_for_visibility(v_target: float, delta_a: float = 0.0) -> float:
    """Phase jitter that degrades the visibility to v_target (root-find)."""
    if not 0.0 < v_target <= noise.visibility_from_errors(delta_a, 0.0):
        raise ValueError("target visibility unreachable for this delta_a")
    if v_target == noise.visibility_from_errors(delta_a, 0.0):
        return 0.0
    return float(brentq(
        lambda s: noise.visibility_from_errors(delta_a, s) - v_target, 0.0, 4.0,
        xtol=1e-12,
    ))


def test_three_pulse_amplitudes():
    alpha, phi = 0.8 - 0.2j, 1.3
    train = three_pulse_train(alpha, PARAMS, phi)
    et, e = 1.0 - PARAMS.eta_abs, PARAMS.eta
    rot = cmath.exp(1j * phi)
    assert abs(train.amplitude(0) - et * alpha) < 1e-14
    assert abs(train.amplitude(1) - math.sqrt(et * e) * (1.0 + rot) * alpha) < 1e-14
    assert abs(train.amplitude(2) - e * rot * alpha) < 1e-14


def test_memory_pass_conserves_or_loses_energy():
    train = PulseTrain(((0, 1.1), (1, 0.3j)))
    out = memory_pass(train, PARAMS)
    assert out.energy() <= train.energy() + 1e-12


def test_middle_pulse_cancels_at_pi():
    alpha = 1.3 + 0.2j
    assert noise.back_displacement_residual(alpha, math.pi, PARAMS) < 1e-12
    train = three_pulse_train(alpha, PARAMS, math.pi)
    assert abs(train.amplitude(1)) ** 2 < 1e-12


def test_residual_formula_matches_train():
    for phi in (0.0, 0.4, 2.0, math.pi - 0.05):
        train = three_pulse_train(1.1, PARAMS, phi)
        assert abs(abs(train.amplitude(1)) ** 2
                   - noise.back_displacement_residual(1.1, phi, PARAMS)) < 1e-12


def test_mean_residual_matches_quadrature():
    alpha, sigma = 1.7, 0.31
    t, w = np.polynomial.hermite.hermgauss(81)
    phis = math.pi + math.sqrt(2.0) * sigma * t
    avg = float(np.dot(w, [noise.back_displacement_residual(alpha, p, PARAMS)
                           for p in phis]) / math.sqrt(math.pi))
    assert abs(avg - noise.mean_residual_photons(alpha, sigma, PARAMS)) < 1e-10


@given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_visibility_closed_form(delta_a, sigma):
    # the jitter-averaged dark-port power by 61-node Gauss-Hermite quadrature
    r = 1.0 + delta_a
    dark = gauss_hermite_phase_average(
        lambda x: abs(1.0 + r * cmath.exp(1j * (math.pi + x))) ** 2, sigma)
    expected = 1.0 - dark / (1.0 + r) ** 2
    assert abs(noise.visibility_from_errors(delta_a, sigma) - expected) < 1e-12


def test_sigma_for_visibility_round_trip():
    for v in (0.9985, 0.95, 0.7):
        sigma = sigma_for_visibility(v)
        assert abs(noise.visibility_from_errors(0.0, sigma) - v) < 1e-9


def test_residual_tracks_interferometer_leak_rate():
    # the jitter-averaged residual equals 2 eta_t times the leak rate
    # 2 mu eta (1 - V) implied by the same jitter; the model keeps the two
    # views consistent to within 10 percent (here: exactly)
    alpha, sigma = 2.0, 0.2
    mean_resid = noise.mean_residual_photons(alpha, sigma, PARAMS)
    one_minus_v = 1.0 - noise.visibility_from_errors(0.0, sigma)
    leak_rate = 2.0 * abs(alpha) ** 2 * PARAMS.eta * one_minus_v
    ratio = mean_resid / leak_rate
    target = 2.0 * (1.0 - PARAMS.eta_abs)
    assert abs(ratio - target) <= 0.1 * target
    assert abs(ratio - target) < 1e-9


def test_phase_only_touches_delayed_slots():
    train = PulseTrain(((0, 1.0), (1, 1.0), (2, 1.0)))
    out = apply_phase(train, math.pi / 2, min_slot=1)
    assert out.amplitude(0) == 1.0
    assert abs(out.amplitude(1) - 1j) < 1e-15
    assert abs(out.amplitude(2) - 1j) < 1e-15
