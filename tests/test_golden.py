"""Frozen CLI outputs: stdout and exit code of a fixed command set, byte for byte.

Each case's stdout lives in ``golden/<name>.out``; the edge-list inputs the
cases read live beside them.  A refactor of the scan pipeline or of the
isomorphism-class test must leave every one of these unchanged.
"""

from pathlib import Path

import pytest

from wienerbounds.cli import main

GOLDEN = Path(__file__).parent / "golden"
TADPOLE_3_6 = str(GOLDEN / "tadpole_3_6.txt")
TRIANGLE_STAR_6 = str(GOLDEN / "triangle_star_6.txt")

# name -> (argv, exit code)
CASES = {
    "compute_all_named": (["compute", "--graph", TADPOLE_3_6, "--all-named", "--q", "0.5"], 0),
    "closed_form_F_13_12": (
        ["closed-form", "--formula", "F", "--n", "13", "--r", "12", "--weight", "power:1"],
        0,
    ),
    "enumerate_4": (["enumerate", "--n", "4"], 0),
    "enumerate_6_count_shard": (["enumerate", "--n", "6", "--count-only", "--shard", "1/4"], 0),
    "enumerate_unlabeled_5": (["enumerate", "--unlabeled", "--n", "5"], 0),
    "enumerate_unlabeled_6": (["enumerate", "--unlabeled", "--n", "6"], 0),
    "verify_5": (["verify", "--n", "5", "--weight", "power:1"], 0),
    "verify_6_power_-1": (["verify", "--n", "6", "--weight", "power:-1"], 0),
    "verify_6_shard_1_3": (["verify", "--n", "6", "--weight", "power:1", "--shard", "1/3"], 0),
    "verify_6_float_shard_2_3": (
        ["verify", "--n", "6", "--weight", "power:-1", "--shard", "2/3"],
        0,
    ),
    "verify_6_q1": (["verify", "--n", "6", "--weight", "q1:0.5"], 0),
    "verify_6_csv": (["--format", "csv", "verify", "--n", "6", "--weight", "power:1"], 0),
    "verify_6_csv_shard_1_3": (
        ["--format", "csv", "verify", "--n", "6", "--weight", "power:1", "--shard", "1/3"],
        0,
    ),
    "lemmas_8_json": (["lemmas", "--nmax", "8", "--weight", "power:1"], 1),
    "lemmas_8_csv": (["--format", "csv", "lemmas", "--nmax", "8", "--weight", "power:1"], 1),
    "search_triangle_star_6": (["search", "--graph", TRIANGLE_STAR_6, "--weight", "power:1"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_frozen(name, capsys):
    argv, expected_code = CASES[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_bytes().decode()
