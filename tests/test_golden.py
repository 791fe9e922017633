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
        "reference_points.csv": "6cac7d0537f63dccbe4bfb3155a4dcf9b8d4f547cc21b4c6e7e52bd9434602cc",
        "witness_curves.csv": "fef4b9319fdd8b7e60987d755ecb58a06fa3893b442627b4264825a47b700bdc",
    },
    "size": {
        "size_curve.csv": "d81ca020bc6781cef583875ab3f391ad356bc421593028cc7f9c5c9268d057d6",
        "size_summary.csv": "8d98593a07a133e4d25bc9d427a64ed0972e8c7e51242578efc74821dc649b14",
    },
    "hom": {
        "hom_overlap.csv": "549dc8abed5ee3a9613b1f6f68f5c8abb68f8964a522c98cea9056705063a70f",
        "hom_visibility.csv": "f989dd8402c73d7fa1310d01ad7ae1131c4bcf5309ec352a7bab73d1fd526dc4",
    },
    "detailed": {
        "detailed_grid.csv": "548bdf10afbd318a7177ad561cad8f43a9cf86383469b069b4c31fce01075a84",
        "detailed_summary.csv": "602ddd4fa28bb7962a499eaa7eceaecd976fb8e443b8a942ca19b6e08f2419b4",
    },
    "tomo": {
        "tomo_matrix.csv": "edcd8dd1d10c6020b6508ac0ea143770dedbcec92902ed129317a7ddffeea6c0",
        "tomo_summary.csv": "540b4c82cb43435ffd8c0685ef2e9e2e2a29f96b4a492dd6ab0c916dea9f3156",
    },
}

#: ``detailed`` with ``detailed.mc_samples = 2000``
GOLDEN_ORACLE = {
    "detailed_grid.csv": "f4e3085754ba7e8d43bfebcdb90b0a36286ef9ccf8ebffd5855748413d1aa34a",
    "detailed_oracle.csv": "91f26cadd69da7448a33934e145a0e8b65d4edd40eb74709bf20cb889e240987",
    "detailed_summary.csv": "0a65e60cd405adf817496c06d3ed8ccbd527e29ced22e33e0268b99069156862",
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
