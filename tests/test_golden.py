"""Golden digests: the SHA-256 of every CSV and SVG the subcommands write.

The default config and seed are used throughout, plus one ``detailed`` run
with a small sampling oracle.  A refactor that changes any written number,
even in the twelfth digit, changes a digest.  Four layers below the CLI
(the tomography MLE, the detailed joints and CHSH S, the CHSH curve and the
hom visibility) have digests of their raw float64 bytes as well.  Any update to these tables is a
deliberate change of output and has to be stated with its reason.
"""
import hashlib

import numpy as np
import pytest

from micromacro import cli, fock, hom, polarization, spdc, tomography

GOLDEN = {
    "curves": {
        "reference_points.csv": "6aad7ae746c7eeb16ff28589cdde72603b1dcd7991dc3c4ccb8120bf573ea483",
        "witness_curves.csv": "e58b3cf5a87746a89d0ecac9bc8f6e1d5f5b2f2a746e70505e9cb7a847a17199",
    },
    "size": {
        "size_curve.csv": "394e3003626fc9e8f39283e64c60c64c22d43fc1566321102763891a8b14ba9d",
        "size_summary.csv": "e325901d598445faa48f28818c7aab4bf39447bd72be524f922e850ea4c0c9f0",
    },
    "hom": {
        "hom_overlap.csv": "c690319d4ee527c9bd9cbf6b384611672370e7e35fc1a3e658b8954f4b480509",
        "hom_visibility.csv": "002490ab2e148ed19c8177d7536eaf85028321d2640bca54a9839877788205da",
    },
    "detailed": {
        "detailed_grid.csv": "a85536367a2c6f29cd9991dcfd5fec42edf4814105fa6a4c009ae178477cb25a",
        "detailed_summary.csv": "a013f6f87e0e0e76e11b4ab0486df551ba822e5b54cdd9bbce61f38ddb0752fa",
    },
    "tomo": {
        "tomo_matrix.csv": "827d54745f3cf44dad8816310245000ab2468f55ea0248c6589642764a6bc2c6",
        "tomo_summary.csv": "1783e41e37aa56f53f2947351c53b10d0e0ce80fde08670c0b22becbce249d68",
    },
}

#: ``detailed`` with ``detailed.mc_samples = 2000``
GOLDEN_ORACLE = {
    "detailed_grid.csv": "1ca64fc43c0c15631a8d4a7ba3794ffbdf6a6673998596486868fbde4b9b9e28",
    "detailed_oracle.csv": "c31a79b019171ba746ed9b27212178a50acdd42d764b3ede8f7c72718f5d482e",
    "detailed_summary.csv": "65ebd96d3a716381577a5cb4571dc785d2d4bf328aed39c17f2431b1473697f7",
}

#: the chart each default run writes with ``--svg``
GOLDEN_SVG = {
    "curves": {
        "witness_curves.svg": "7db4b2409f65d5971191dc1449f1089b4509e9c20ba23f81bae9ec3787a90a56",
    },
    "size": {
        "size_curve.svg": "3ee9e3a86a67d988708f1344f66f0fe9059468453b9152b6635706c3872c8ba7",
    },
    "hom": {
        "hom_visibility.svg": "42398f6f38800166e27918c3ca7c056b458e03bca9307f28711d5c356ae8b647",
    },
    "detailed": {
        "detailed_grid.svg": "3564512942085b20af4a12bf3ddddc648db338e878d428c71efe77fbd0e5b619",
    },
}

#: the raw float64 bytes of three layers on the sweep_mix benchmark grids:
#: the MLE state of ``tomo`` at 1e5 shots per (Werner w, rng_seed), the CHSH
#: curve over 81 leak gains and V over 75 (eta_d, mu) points.  They pin every
#: bit, where the CSVs pin 12 digits: a speedup that reorders one floating-
#: point operation changes a digest here.  Bits may differ on another BLAS.
GOLDEN_MLE = {
    (1.0, 1): "fcc71be190666b7c09a5b737c64931c9e6c4ca6f452fee29209943c66a56d7d6",
    (1.0, 2): "4e5fd7f2e8e88585ed3ab16cd07abd49cd1d4b421498cc3d1351538990aa89ea",
    (1.0, 3): "38be84b32f0d16ec0a67620b9ce7bec9b74cafb2f6146e3cd060a9bdf602b41e",
    (0.94, 1): "d271e78ed8626b105f9b9943588c0ad02e738542ec92b67fa44e2683ae314c18",
    (0.94, 2): "99d9182186a304fad59b0cd21acdd8b4133975fe4f8efd5f9dc02d3b154508a7",
    (0.94, 3): "20da42bb96f6f9fb9769669047761f7b58bc7020879b774243f33741a2c1e094",
    (0.7, 1): "d46d114375b5e3bd7a772927670f036f2b7ae02f32106b5194752ec4ae7f87ef",
    (0.7, 2): "4079a8bf3afec1c99af02be3acd9a7e175f89fc7e18665723a54d6d4d292b21c",
    (0.7, 3): "6855d108297f5dd043ae6b3159152cf2ef297527cbe582477cf4b36f0f02ea5e",
    (0.999, 1): "2caa6222fb0e05c66172a962c9e07a583d4eed2c3f35b1681a928d4a70163e52",
    (0.999, 2): "e0d3830dfe3fbb19d733581a72c34393f845832c3cbe13496fb0d4b7e27008a4",
    (0.999, 3): "02401f8342932e83e923d562af4ff27debc58fbbad0ef7de7a6d961af6828f0e",
}
#: the default (4, 4, 4) joint grid over ``spdc.GRID_DEG`` and the default S
GOLDEN_JOINT_GRID = "cc1de59a8b021118e8731977022faeb758c36230535ed2c3d2a3287a4b611111"
GOLDEN_CHSH = "4966c6c1684a43cbf6b4d462fc034694d9cecbce59702e111aa1d58b2c71aef9"
GOLDEN_CHSH_CURVE = "fe4d5550f89e5c80e652fbc6796054cd5797463650544779eb00058894bbe327"
GOLDEN_HOM_VISIBILITY = "dd1494d3da46097679bf991dc8fc148c4b89679358e4508bab523430ca76f9a5"


def _digests(directory, pattern="*.csv") -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.glob(pattern))}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_outputs_match_golden_digests(command, tmp_path):
    assert cli.main([command, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == GOLDEN[command]


def test_oracle_outputs_match_golden_digests(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("detailed.mc_samples = 2000\n")
    out = tmp_path / "out"
    assert cli.main(["detailed", "--config", str(cfg), "--out", str(out)]) == 0
    assert _digests(out) == GOLDEN_ORACLE


@pytest.mark.parametrize("command", sorted(GOLDEN_SVG))
def test_default_charts_match_golden_digests(command, tmp_path):
    # the tables written beside the chart are the same bytes as without --svg
    assert cli.main([command, "--out", str(tmp_path), "--svg"]) == 0
    assert _digests(tmp_path, "*.svg") == GOLDEN_SVG[command]
    assert _digests(tmp_path) == GOLDEN[command]


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def test_mle_states_match_pinned_digests():
    got = {}
    for w, rng_seed in GOLDEN_MLE:
        counts = tomography.simulate_tomography(polarization.werner_state(w),
                                                shots=100_000, rng_seed=rng_seed)
        got[w, rng_seed] = _sha256(tomography.reconstruct_mle(counts).matrix)
    assert got == GOLDEN_MLE


def test_joint_grid_and_chsh_match_pinned_digests():
    p = spdc.DetailedParams()
    th = np.radians(spdc.GRID_DEG)
    assert _sha256(spdc.joints(th[:, None], th[None, :], p)) == GOLDEN_JOINT_GRID
    assert _sha256(np.float64(spdc.chsh_from_detailed(p))) == GOLDEN_CHSH


def test_chsh_curve_matches_pinned_digest():
    curve = spdc.detailed_chsh_curve(np.linspace(0.0, 4.0, 81), spdc.DetailedParams())
    assert _sha256(curve) == GOLDEN_CHSH_CURVE


def test_hom_visibility_matches_pinned_digest():
    v = np.array([hom.hom_visibility(hom.HomParams(
                      mu_csp=float(mu), detector=fock.ClickDetector(eta_d, 0.0)))
                  for eta_d in (0.3, 0.5, 0.8) for mu in np.linspace(0.001, 0.2, 25)])
    assert _sha256(v) == GOLDEN_HOM_VISIBILITY
