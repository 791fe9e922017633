"""Golden digests: the SHA-256 of every CSV and SVG the subcommands write.

The default config and seed are used throughout, plus one ``detailed`` run
with a small sampling oracle.  A refactor that changes any written number,
even in the twelfth digit, changes a digest.  Any update to this table is a
deliberate change of output and has to be stated with its reason.
"""
import hashlib

import pytest

from micromacro import cli

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
