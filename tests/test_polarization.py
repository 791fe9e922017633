import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micromacro import polarization as pol

RT2 = math.sqrt(2.0)


@given(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_bell_correlator_depends_on_angle_difference(theta_a, theta_b):
    e = pol.correlator(pol.bell_state(), theta_a, theta_b)
    assert abs(e - math.cos(2.0 * (theta_a - theta_b))) < 1e-12


def test_measurement_setting_observables():
    z = pol.MeasurementSetting(0.0).observable()
    x = pol.MeasurementSetting(math.pi / 4).observable()
    assert np.max(np.abs(z - np.diag([1.0, -1.0]))) < 1e-15
    assert np.max(np.abs(x - np.array([[0, 1], [1, 0]]))) < 1e-15


def test_chsh_at_default_settings_is_tsirelson():
    assert abs(pol.chsh_value(pol.bell_state()) - 2.0 * RT2) < 1e-12


def test_chsh_maximum_dominates_fixed_settings():
    for w in (0.3, 0.7, 0.94):
        rho = pol.werner_state(w)
        s_max = pol.chsh_maximum(rho)
        assert abs(s_max - 2.0 * RT2 * w) < 1e-10
        assert pol.chsh_value(rho) <= s_max + 1e-12


def test_werner_ppt_and_concurrence_closed_forms():
    for w in (0.0, 1.0 / 3.0, 0.6, 1.0):
        rho = pol.werner_state(w)
        assert abs(pol.ppt_min_eigenvalue(rho) - (1.0 - 3.0 * w) / 4.0) < 1e-10
        assert abs(pol.concurrence(rho) - max(0.0, (3.0 * w - 1.0) / 2.0)) < 1e-10


def test_witnesses_agree_on_entanglement_threshold():
    # both leave zero exactly at w = 1/3
    below, above = pol.werner_state(0.32), pol.werner_state(0.34)
    assert pol.ppt_min_eigenvalue(below) > 0.0
    assert pol.concurrence(below) == 0.0
    assert pol.ppt_min_eigenvalue(above) < 0.0
    assert pol.concurrence(above) > 0.0


def test_state_fidelity():
    bell = pol.bell_state()
    assert abs(pol.state_fidelity(bell, bell) - 1.0) < 1e-12
    mixed = pol.werner_state(0.0)
    assert abs(pol.state_fidelity(bell, mixed) - 0.25) < 1e-12


def test_werner_parameter_validated():
    with pytest.raises(ValueError):
        pol.werner_state(1.2)


def test_any_polarization_basis_gives_the_same_bell_state():
    # with |psi> = a|H> + e^{i th} b|V>, |phi> = |psi>* and their orthogonal
    # partners, (|psi, phi> + |psi_perp, phi_perp>)/sqrt2 is the Bell state
    cases = [
        (1.0 / RT2, 1.0 / RT2, 0.0),
        (0.6, 0.8, 1.1),
        (0.9486832980505138, 0.31622776601683794, -2.3),
    ]
    for a, b, th in cases:
        psi = np.array([a, np.exp(1j * th) * b])
        psi_perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
        v = (np.kron(psi, psi.conj()) + np.kron(psi_perp, psi_perp.conj())) / RT2
        assert np.max(np.abs(np.outer(v, v.conj()) - pol.bell_state().matrix)) < 1e-12
