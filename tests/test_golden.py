"""Golden digests: the SHA-256 of every CSV the subcommands write.

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
        "reference_points.csv": "7de27e404f72fddce573f312525a2b7b55244b4d6028d4d1bc749ad499c8b95e",
        "witness_curves.csv": "4515ebf2cfd70b758df2641197df3099b0765b58ef1033b39769c21eca9a2c54",
    },
    "size": {
        "size_curve.csv": "86deae1cfc8780b0c2537b0cb987688822354f1ffe1255d8171addf998fda293",
        "size_summary.csv": "ba4a867461c5742e535dcd9a71d53f890810fd4b491ebb5fb7252798ed5d1f6f",
    },
    "hom": {
        "hom_overlap.csv": "2df43da122c040d4fb9146f7410d0626d0182c9baaf351697c63030c786b5e1c",
        "hom_visibility.csv": "afad72ff1a125d4699dbb5ecf138e8db31fd97dd4cfe14f466c4dce778541b7b",
    },
    "detailed": {
        "detailed_grid.csv": "57b7147ad2223fd365da2178e427557c498fdf880cc64f2c19f8b53c66940400",
        "detailed_summary.csv": "717bfb9a1c4b7d63c467c3d23880873eb836d47e4d36ba1bdd5ff412de0190ed",
    },
    "tomo": {
        "tomo_matrix.csv": "534e1eddcef7e72ca1148c90955fbf84f121b6f35c4668b1b947a8a5566c413e",
        "tomo_summary.csv": "da4bff8297e0aab7cff8664fdab3d9f09be7941a44992f2bc4fb9a80e09b911a",
    },
}

#: ``detailed`` with ``detailed.mc_samples = 2000``
GOLDEN_ORACLE = {
    "detailed_grid.csv": "efd1b292e2c0ac130a357d6b36f0997651e98936f871caf591afdb4ec841feeb",
    "detailed_oracle.csv": "36bc8b5dbee8f35d67bdeee0ad43a6b92904a8fa3bb1b9fca9f2e8b7ee4ba10c",
    "detailed_summary.csv": "fcdb8441376cd1d9cffc13d129fb6fe16b5786394f453903dec5a2e65a300052",
}


def _digests(directory) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.glob("*.csv"))}


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
