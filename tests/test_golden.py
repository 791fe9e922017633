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
        "tomo_matrix.csv": "fb22a894fbb79e35e2094a4833423d8923bf2e6e77083052dc6b3f9fb76da787",
        "tomo_summary.csv": "e05b0d87d8b41d52dede517345301729c9c6a0b34d3dfe097835c3832a295f84",
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
    (1.0, 1): "da0b9e88c92c1d72971f7c4cb9fdce70792b337ef05f4d885914e31f945dd0d8",
    (1.0, 2): "e12d8b289c83cf72254c405ab2e9f834f98c09fff8a9ddfe08c70f9c0c85a228",
    (1.0, 3): "7140b1aabf3ccd4ee25aac10e61975685985f43825256762ee6951b5d784e6b5",
    (0.94, 1): "1242121b17191d08c0295ea6d3d5dce2f7bed55f65fd4866032f59afd0958252",
    (0.94, 2): "8195cdfc19f13da57cd56700d9fc93da6cecc2f3674263beb2478cd0e55f29af",
    (0.94, 3): "b987f84f9542a2f4c6faa636e9dd2e4cc67d404173e297bbae23f6739a33d7af",
    (0.7, 1): "c3ffd1f55af0328e256c7b4400b3aea38b754f1108e40f14dab7a25948d8df64",
    (0.7, 2): "e238f5003015de36a6df3af22be9cb7c5de83c9ba4360bbbfe34334dc98fd4c7",
    (0.7, 3): "e353efa787e0c7f9dd9a289ab8851e74058bacaae7292efcdb4953942375f32e",
    (0.999, 1): "83691a6797bf23a50ffd5972659e14a53c9771f989e482d79d84b174ba6d1893",
    (0.999, 2): "f97b2696818ed8320e168c75c8c3297474ddf5c3c11474a7096e6d90c93f28e5",
    (0.999, 3): "001d47ed68a4335c16a9079c99bd76a3c8550c0455eb9e65cdf918453dd9ef79",
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
    assert _sha256(np.float64(spdc.detailed_chsh_curve(p.gamma, p))) == GOLDEN_CHSH


def test_chsh_curve_matches_pinned_digest():
    curve = spdc.detailed_chsh_curve(np.linspace(0.0, 4.0, 81), spdc.DetailedParams())
    assert _sha256(curve) == GOLDEN_CHSH_CURVE


def test_hom_visibility_matches_pinned_digest():
    v = np.array([hom.hom_visibility(hom.HomParams(
                      mu_csp=float(mu), detector=fock.ClickDetector(eta_d, 0.0)))
                  for eta_d in (0.3, 0.5, 0.8) for mu in np.linspace(0.001, 0.2, 25)])
    assert _sha256(v) == GOLDEN_HOM_VISIBILITY
