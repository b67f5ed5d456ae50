import csv
import io
import json
import os
from pathlib import Path

import pytest

from wienerbounds.cli import CLOSED_FORM_MAX_N, LEMMAS_MAX_NMAX, MAX_EXACT_EXPONENT, main
from wienerbounds.enumeration import MAX_CLASS_N
from wienerbounds.families import cycle, tadpole, triangle_star
from wienerbounds.graphs import MAX_VERTICES, format_edge_list, parse_edge_list

# the class engine's first refused n, and the message that refuses it
ABOVE_CLASS_CAP = MAX_CLASS_N + 1
CLASS_CAP_TEXT = f"n={ABOVE_CLASS_CAP} exceeds the class-engine cap {MAX_CLASS_N}"


@pytest.fixture
def g36_file(tmp_path):
    p = tmp_path / "g36.txt"
    p.write_text(format_edge_list(tadpole(3, 6)))
    return str(p)


@pytest.fixture
def j6_file(tmp_path):
    p = tmp_path / "j6.txt"
    p.write_text(format_edge_list(triangle_star(6)))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_single_weight(self, capsys, g36_file):
        code, out, _ = run(capsys, "compute", "--graph", g36_file, "--weight", "power:1")
        assert code == 0
        rows = json.loads(out)
        assert rows == [{"index_name": "power:1", "mode": "exact", "value": "31"}]

    def test_all_named_with_q(self, capsys, g36_file):
        code, out, _ = run(
            capsys, "compute", "--graph", g36_file, "--all-named", "--q", "0.5"
        )
        assert code == 0
        rows = {r["index_name"]: r for r in json.loads(out)}
        assert rows["wiener"]["value"] == "31"
        assert rows["hyper-wiener"]["value"] == "56"
        assert rows["tsz"]["value"] == "92"
        assert rows["harary"]["mode"] == "float"
        assert set(rows) >= {"q-wiener-1", "q-wiener-2", "q-wiener-3"}

    def test_all_named_builds_one_distribution(self, capsys, monkeypatch, g36_file):
        from wienerbounds import cli, graphs, indices

        calls = []
        real = graphs.distance_distribution

        def counted(g):
            calls.append(g.n)
            return real(g)

        for module in (graphs, indices, cli):
            monkeypatch.setattr(module, "distance_distribution", counted)
        code, out, _ = run(
            capsys, "compute", "--graph", g36_file, "--weight", "power:2", "--all-named", "--q", "0.5"
        )
        assert code == 0 and len(json.loads(out)) == 9
        assert calls == [6]

    def test_exact_values_roundtrip_through_json(self, capsys, g36_file):
        _, out, _ = run(capsys, "compute", "--graph", g36_file, "--weight", "power:3")
        row = json.loads(out)[0]
        assert row["mode"] == "exact"
        assert isinstance(row["value"], str)
        # distances {1: 6, 2: 4, 3: 3, 4: 2}: 6 + 32 + 81 + 128
        assert int(row["value"]) == 247

    def test_csv_format(self, capsys, g36_file):
        code, out, _ = run(
            capsys, "--format", "csv", "compute", "--graph", g36_file, "--weight", "power:1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index_name,value,mode"
        assert lines[1] == "power:1,31,exact"

    @pytest.mark.parametrize("text", [f"n {MAX_VERTICES + 1}\n0 1\n", f"0 {MAX_VERTICES}\n"])
    def test_vertex_count_above_the_bound_is_usage_error(self, capsys, tmp_path, text):
        p = tmp_path / "big.txt"
        p.write_text(text)
        code, out, err = run(capsys, "compute", "--graph", str(p), "--weight", "power:1")
        assert code == 2 and out == ""
        assert str(MAX_VERTICES) in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "compute", "--graph", str(tmp_path / "nope.txt"), "--weight", "power:1"
        )
        assert code == 2
        assert "error" in err

    def test_bad_weight_is_usage_error(self, capsys, g36_file):
        code, _, _ = run(capsys, "compute", "--graph", g36_file, "--weight", "power:x")
        assert code == 2

    def test_nothing_requested(self, capsys, g36_file):
        code, _, _ = run(capsys, "compute", "--graph", g36_file)
        assert code == 2


class TestNonFiniteWeights:
    """A float weight past the range of a double, or a non-finite literal, is
    an input error: exit 2 before anything reaches stdout, which would
    otherwise carry NaN or Infinity, tokens that no JSON reader accepts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "6", "--weight", "q1:1e200"],  # q**k raises OverflowError
            ["verify", "--n", "5", "--weight", "q3:1e100"],  # [3]_q * q**3 overflows silently
            ["--format", "csv", "verify", "--n", "5", "--weight", "q3:1e100"],
            ["compute", "--weight", "q3:1e308"],
            ["compute", "--weight", "q1:inf"],
            ["compute", "--weight", "power:nan"],
            ["compute", "--weight", "power:1e400"],
            ["compute", "--weight", "table:1,2,3,inf"],
            ["compute", "--all-named", "--q", "inf"],
        ],
        ids=["verify-q1-pow", "verify-q3-product", "verify-q3-product-csv", "compute-q3-pow",
             "q1-inf", "power-nan", "power-1e400", "table-inf", "named-q-inf"],
    )
    def test_exits_2_with_empty_stdout(self, capsys, g36_file, argv):
        if "compute" in argv:
            argv = [*argv, "--graph", g36_file]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_an_index_past_a_double_is_refused_at_output(self, capsys, tmp_path):
        # the 10 antipodal pairs of C_20 each weigh 10.0**308: every weight
        # value is a double, their sum is not
        path = tmp_path / "c20.txt"
        path.write_text(format_edge_list(cycle(20)))
        code, out, err = run(capsys, "compute", "--graph", str(path), "--weight", "power:308.0")
        assert code == 2 and out == ""
        assert "not JSON compliant" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    @pytest.mark.parametrize("command", ["compute", "closed-form"])
    def test_an_index_past_a_double_is_refused_in_every_format(self, capsys, tmp_path, fmt, command):
        if command == "compute":
            path = tmp_path / "c20.txt"
            path.write_text(format_edge_list(cycle(20)))
            argv = ["compute", "--graph", str(path)]
        else:
            argv = ["closed-form", "--formula", "cycle", "--n", "20"]
        code, out, err = run(capsys, "--format", fmt, *argv, "--weight", "power:308.0")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_a_large_finite_weight_still_passes(self, capsys, g36_file):
        code, out, _ = run(capsys, "compute", "--graph", g36_file, "--weight", "power:60.0")
        assert code == 0
        [row] = json.loads(out)
        assert row["mode"] == "float"
        assert row["value"] == pytest.approx(6 + 4 * 2**60 + 3 * 3**60 + 2 * 4**60, rel=1e-15)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "6"],
        ["verify", "--n", "6", "--shard", "0/2"],
        ["lemmas", "--nmax", "6"],
        ["search", "--graph", None],
        ["closed-form", "--formula", "cycle", "--n", "6"],
    ],
    ids=["verify", "verify-shard", "lemmas", "search", "closed-form"],
)
def test_q2_without_diameter_rejected(capsys, monkeypatch, j6_file, argv):
    """q2:Q fills its diameter per graph, which only compute has: every other
    command refuses it with the CLI spelling of a fixed diameter, before a
    scan, a closed-form sweep or a move starts."""
    from wienerbounds import extremal

    def forbidden(*args, **kwargs):
        raise AssertionError("a scan was started")

    for name in ("scan_classes", "tadpole_closed_form", "apply_terminal_merge",
                 "apply_tail_rebalance"):
        monkeypatch.setattr(extremal, name, forbidden)
    argv = [j6_file if a is None else a for a in argv]
    code, out, err = run(capsys, *argv, "--weight", "q2:0.5")
    assert code == 2 and out == ""
    assert "q2:Q:L" in err and "diameter" in err


def test_compute_fills_the_q2_diameter_per_graph(capsys, g36_file):
    code, out, _ = run(capsys, "compute", "--graph", g36_file, "--weight", "q2:0.5")
    assert code == 0
    [row] = json.loads(out)
    assert row["index_name"] == "q2:0.5:4"  # F_3,6 has diameter 4


class TestConstruct:
    def test_roundtrip_through_file(self, capsys, tmp_path):
        out_file = tmp_path / "c7.txt"
        code, _, _ = run(
            capsys, "construct", "--family", "cycle", "--n", "7", "--out", str(out_file)
        )
        assert code == 0
        g = parse_edge_list(out_file.read_text())
        assert g.n == 7 and g.edge_count == 7

    def test_stdout_and_families(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "jn", "--n", "6")
        assert code == 0
        assert parse_edge_list(out) == triangle_star(6)
        code, out, _ = run(capsys, "construct", "--family", "grn", "--n", "6", "--r", "4")
        assert parse_edge_list(out) == tadpole(4, 6)

    def test_grn_requires_r(self, capsys):
        code, _, _ = run(capsys, "construct", "--family", "grn", "--n", "6")
        assert code == 2

    def test_invalid_n(self, capsys):
        code, _, _ = run(capsys, "construct", "--family", "cycle", "--n", "2")
        assert code == 2

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "g.txt"
        code, out, err = run(
            capsys, "construct", "--family", "cycle", "--n", "5", "--out", str(out_file)
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {out_file}") and "Traceback" not in err


class TestClosedForm:
    def test_tadpole_formula(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "--formula", "F", "--n", "13", "--r", "12",
            "--weight", "power:1",
        )
        assert code == 0
        assert json.loads(out)[0]["value"] == "264"

    def test_example_difference_is_five(self, capsys):
        _, out12, _ = run(
            capsys, "closed-form", "--formula", "F", "--n", "13", "--r", "12",
            "--weight", "power:1",
        )
        _, out11, _ = run(
            capsys, "closed-form", "--formula", "F", "--n", "13", "--r", "11",
            "--weight", "power:1",
        )
        v12 = int(json.loads(out12)[0]["value"])
        v11 = int(json.loads(out11)[0]["value"])
        assert v12 - v11 == 5

    def test_other_formulas(self, capsys):
        for formula, n, want in (("path", "4", "10"), ("cycle", "6", "27"), ("jn", "6", "24")):
            _, out, _ = run(
                capsys, "closed-form", "--formula", formula, "--n", n, "--weight", "power:1"
            )
            assert json.loads(out)[0]["value"] == want

    def test_f_requires_r(self, capsys):
        code, _, _ = run(
            capsys, "closed-form", "--formula", "F", "--n", "10", "--weight", "power:1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "formula", [["path"], ["cycle"], ["jn"], ["F", "--r", "3"], ["F", "--r", "2000"]]
    )
    def test_n_above_the_limit_rejected_before_any_term(self, capsys, monkeypatch, formula):
        from wienerbounds import closed_forms

        def no_terms(*args, **kwargs):
            raise AssertionError("a closed-form term was summed")

        monkeypatch.setattr(closed_forms, "_sum", no_terms)
        n = str(CLOSED_FORM_MAX_N + 1)
        code, out, err = run(
            capsys, "closed-form", "--formula", *formula, "--n", n, "--weight", "power:1"
        )
        assert code == 2 and out == ""
        assert f"--n {n}" in err and str(CLOSED_FORM_MAX_N) in err

    def test_n_at_the_limit_accepted(self, capsys):
        n = str(CLOSED_FORM_MAX_N)
        code, out, _ = run(
            capsys, "closed-form", "--formula", "path", "--n", n, "--weight", "power:1"
        )
        assert code == 0
        assert json.loads(out)[0]["value"] == str((CLOSED_FORM_MAX_N**3 - CLOSED_FORM_MAX_N) // 6)


class Reached(Exception):
    """Raised by a patched summation to show that a command got that far."""


def forbid_terms(monkeypatch, exc=AssertionError):
    """Make every closed-form sum, dominance sweep, class scan, BFS and
    power-weight term raise ``exc``."""
    from wienerbounds import closed_forms, extremal, graphs
    from wienerbounds.weights import PowerWeight

    def no_terms(*args, **kwargs):
        raise exc("a term, a scan or a distance was evaluated")

    monkeypatch.setattr(closed_forms, "_sum", no_terms)
    monkeypatch.setattr(extremal, "check_f3_dominance", no_terms)
    monkeypatch.setattr(extremal, "scan_classes", no_terms)
    monkeypatch.setattr(graphs, "bfs_distances", no_terms)
    monkeypatch.setattr(PowerWeight, "__call__", no_terms)


TADPOLE_3_6 = str(Path(__file__).parent / "golden" / "tadpole_3_6.txt")
WEIGHTED_COMMANDS = [
    ["closed-form", "--formula", "F", "--r", "3", "--n", "10"],
    ["lemmas", "--nmax", "10"],
    ["verify", "--n", "6"],
    ["compute", "--graph", TADPOLE_3_6],
    ["search", "--graph", TADPOLE_3_6],
]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["compute", "--graph", TADPOLE_3_6, "--weight", "power:1", "--q", "0.5"], "--q"),
        (["construct", "--family", "cycle", "--n", "5", "--r", "3"], "--r"),
        (["closed-form", "--formula", "path", "--n", "5", "--r", "3", "--weight", "power:1"], "--r"),
    ],
)
def test_option_the_variant_ignores_is_refused(capsys, monkeypatch, argv, option):
    from wienerbounds import cli

    def no_read(path):
        raise AssertionError("the graph was read")

    forbid_terms(monkeypatch)
    monkeypatch.setattr(cli, "_load_graph", no_read)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} applies only")


class TestExactExponent:
    @pytest.mark.parametrize(
        "argv",
        [
            ["closed-form", "--formula", "path", "--n", "10"],
            ["closed-form", "--formula", "cycle", "--n", "10"],
            ["closed-form", "--formula", "jn", "--n", "10"],
            ["verify", "--n", "6", "--shard", "0/2"],
            *WEIGHTED_COMMANDS,
        ],
    )
    def test_above_the_limit_rejected_before_any_term(self, capsys, monkeypatch, argv):
        forbid_terms(monkeypatch)
        weight = f"power:{MAX_EXACT_EXPONENT + 1}"
        code, out, err = run(capsys, *argv, "--weight", weight)
        assert code == 2 and out == ""
        assert weight in err and f"limit {MAX_EXACT_EXPONENT}" in err

    @pytest.mark.parametrize("argv", WEIGHTED_COMMANDS)
    def test_at_the_limit_reaches_the_sum(self, monkeypatch, argv):
        forbid_terms(monkeypatch, Reached)
        with pytest.raises(Reached):
            main([*argv, "--weight", f"power:{MAX_EXACT_EXPONENT}"])

    def test_at_the_limit_evaluates_exactly(self, capsys):
        weight = f"power:{MAX_EXACT_EXPONENT}"
        code, out, _ = run(capsys, "closed-form", "--formula", "path", "--n", "5", "--weight", weight)
        assert code == 0
        want = sum((5 - k) * k**MAX_EXACT_EXPONENT for k in range(1, 5))
        assert json.loads(out)[0]["value"] == str(want)

    @pytest.mark.parametrize("weight", ["power:-60", "power:60.0"])
    def test_float_exponents_are_not_bounded(self, capsys, weight):
        code, out, _ = run(capsys, "closed-form", "--formula", "cycle", "--n", "5", "--weight", weight)
        assert code == 0 and json.loads(out)[0]["mode"] == "float"


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--count-only")
        assert code == 0
        payload = json.loads(out)
        assert payload["labeled_count"] == 222
        assert payload["cycle_length_sum"] == 750

    def test_sharded_counts_sum(self, capsys):
        total = 0
        for i in range(4):
            _, out, _ = run(
                capsys, "enumerate", "--n", "5", "--count-only", "--shard", f"{i}/4"
            )
            total += json.loads(out)["labeled_count"]
        assert total == 222

    def test_unlabeled_count(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--n", "5", "--count-only", "--unlabeled")
        assert json.loads(out)["unlabeled_count"] == 5

    def test_unlabeled_shard_rejected_before_any_stream(self, capsys, monkeypatch):
        from wienerbounds import enumeration

        def no_stream(*args, **kwargs):
            raise AssertionError("a graph stream was started")

        monkeypatch.setattr(enumeration, "iter_unicyclic_edge_masks", no_stream)
        code, out, err = run(
            capsys, "enumerate", "--n", "5", "--unlabeled", "--count-only", "--shard", "1/4"
        )
        assert code == 2 and out == ""
        assert "--unlabeled" in err and "--shard" in err

    @pytest.mark.parametrize(
        "fmt, expected",
        [("csv", "n,labeled_count,cycle_length_sum\n5,222,750\n"), ("plain", "5\t222\t750\n")],
        ids=["csv", "plain"],
    )
    def test_count_only_honours_format(self, capsys, fmt, expected):
        code, out, _ = run(capsys, "--format", fmt, "enumerate", "--n", "5", "--count-only")
        assert code == 0 and out == expected

    def test_unlabeled_count_past_the_labeled_cap(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--unlabeled", "--n", "12", "--count-only")
        assert code == 0 and json.loads(out)["unlabeled_count"] == 5026  # OEIS A001429

    @pytest.mark.parametrize("count_only", [[], ["--count-only"]])
    def test_unlabeled_above_the_class_engine_cap_rejected_before_any_tree(
        self, capsys, monkeypatch, count_only
    ):
        from wienerbounds import enumeration

        def no_trees(*args, **kwargs):
            raise AssertionError("a rooted-tree table was built")

        monkeypatch.setattr(enumeration, "_rooted_trees", no_trees)
        code, out, err = run(
            capsys, "enumerate", "--unlabeled", "--n", str(ABOVE_CLASS_CAP), *count_only
        )
        assert code == 2 and out == ""
        assert CLASS_CAP_TEXT in err

    def test_stream_json_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 15
        first = json.loads(lines[0])
        assert len(first["edges"]) == 4

    @pytest.mark.parametrize("fmt", ["csv", "plain"])
    def test_stream_as_edge_tokens_outside_json(self, capsys, fmt):
        _, out, _ = run(capsys, "enumerate", "--n", "4")
        lines = [json.loads(line)["edges"] for line in out.splitlines()]
        code, text, _ = run(capsys, "--format", fmt, "enumerate", "--n", "4")
        assert code == 0
        assert text == "".join(" ".join(f"{u}-{v}" for u, v in e) + "\n" for e in lines)

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "10", "--count-only")
        assert code == 2 and "cap" in err

    @pytest.mark.parametrize(
        "command", [["enumerate", "--count-only"], ["verify", "--weight", "power:1"]]
    )
    def test_cap_flag_is_gone(self, capsys, monkeypatch, command):
        from wienerbounds import enumeration, extremal

        def no_scan(*args, **kwargs):
            raise AssertionError("a scan was started")

        monkeypatch.setattr(enumeration, "iter_unicyclic_edge_masks", no_scan)
        monkeypatch.setattr(extremal, "_weight_tables", no_scan)
        code, out, err = run(capsys, *command, "--n", "10", "--cap", "10")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --cap 10" in err


class TestVerify:
    def test_passing_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--weight", "power:1")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_value"] == "24"
        assert payload["max_value"] == "31"
        assert payload["all_ok"] is True
        assert payload["argmin_count"] == 60
        assert payload["argmax_count"] == 360

    def test_class_engine_verifies_past_the_labeled_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "10", "--weight", "power:1")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert payload["graphs_scanned"] == 880_107_840  # OEIS A057500
        assert payload["cycle_length_sum"] == 10**8 * (45 - 9)
        assert payload["argmin_count"] == 3_628_800 // (2 * 5040)  # 10!/|Aut(J_10)|
        assert payload["argmax_count"] == 3_628_800 // 2  # 10!/|Aut(F_3,10)|

    def test_shard_takes_the_class_engine_cap(self, capsys, monkeypatch):
        from wienerbounds import extremal

        def forbidden(*args, **kwargs):
            raise AssertionError("a weight table was requested")

        monkeypatch.setattr(extremal, "_weight_tables", forbidden)
        argv = ["verify", "--n", str(ABOVE_CLASS_CAP), "--weight", "power:1", "--shard", "0/2"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert CLASS_CAP_TEXT in err

    @pytest.mark.parametrize("n, k", [(6, 2), (6, 3), (14, 3)])
    def test_shards_add_up_to_the_full_report(self, capsys, n, k):
        argv = ["verify", "--n", str(n), "--weight", "power:1"]
        _, out, _ = run(capsys, *argv)
        full = json.loads(out)
        parts = []
        for i in range(k):
            code, out, _ = run(capsys, *argv, "--shard", f"{i}/{k}")
            assert code == 0
            parts.append(json.loads(out))
        for key in ("graphs_scanned", "cycle_length_sum"):
            assert sum(p[key] for p in parts) == full[key]
        for side, pick in (("min", min), ("max", max)):
            value = str(pick(int(p[f"{side}_value"]) for p in parts))
            assert value == full[f"{side}_value"]
            holders = [p for p in parts if p[f"{side}_value"] == value]
            assert sum(p[f"arg{side}_count"] for p in holders) == full[f"arg{side}_count"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "6", "--weight", "power:1", "--shard", "3/3"],
            ["verify", "--n", "6", "--weight", "power:1", "--shard", "0/0"],
            ["enumerate", "--n", "5", "--count-only", "--shard", "4/4"],
        ],
    )
    def test_bad_shard_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "bad shard" in err and "0 <= i < k" in err

    @pytest.mark.parametrize("spec", ["1-2", "a/b", "1/2/3"])
    @pytest.mark.parametrize(
        "command",
        [["verify", "--n", "6", "--weight", "power:1"], ["enumerate", "--n", "5", "--count-only"]],
    )
    def test_malformed_shard_spec_rejected(self, capsys, command, spec):
        code, out, err = run(capsys, *command, "--shard", spec)
        assert code == 2 and out == ""
        assert f"bad shard spec {spec!r}, expected i/k" in err

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "verify", "--n", "6", "--weight", "power:2")
        _, out2, _ = run(capsys, "verify", "--n", "6", "--weight", "power:2")
        assert out1 == out2

    def test_small_n_reports_without_claims(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--weight", "power:1")
        assert code == 0
        payload = json.loads(out)
        assert payload["applicable"] is False
        assert "all_ok" not in payload

    def test_partial_shard_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "6", "--weight", "power:1", "--shard", "0/2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["partial"] is True
        assert 0 < payload["graphs_scanned"] < 3660

    @pytest.fixture
    def no_scan(self, monkeypatch):
        from wienerbounds import extremal

        def forbidden(*args, **kwargs):
            raise AssertionError("a scan was started")

        monkeypatch.setattr(extremal, "scan_classes", forbidden)

    @pytest.mark.parametrize("shard", [[], ["--shard", "0/2"]])
    def test_non_monotone_weight_rejected(self, capsys, no_scan, shard):
        code, out, err = run(capsys, "verify", "--n", "6", "--weight", "power:0", *shard)
        assert code == 2 and out == "" and "monotone" in err

    def test_csv_report_row_is_well_formed(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "verify", "--n", "6", "--weight", "power:1"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert len(row.split(",")) == len(header.split(","))

    def test_plain_report_is_the_csv_row_tab_separated(self, capsys):
        argv = ["verify", "--n", "6", "--weight", "power:1"]
        _, csv_out, _ = run(capsys, "--format", "csv", *argv)
        code, out, _ = run(capsys, "--format", "plain", *argv)
        assert code == 0
        header, csv_row = csv_out.splitlines()
        (row,) = out.splitlines()
        assert row.split("\t") == csv_row.split(",")
        assert dict(zip(header.split(","), row.split("\t")))["argmax_count"] == "360"

    def test_jobs_above_cpu_count_rejected_before_any_process(self, capsys, monkeypatch):
        import multiprocessing

        def no_processes(*args, **kwargs):
            raise AssertionError("a process context was requested")

        monkeypatch.setattr(multiprocessing, "get_context", no_processes)
        code, out, err = run(
            capsys, "verify", "--n", "6", "--weight", "power:1", "--jobs", "1000000"
        )
        assert code == 2 and out == ""
        assert "--jobs 1000000" in err and "CPUs" in err

    @pytest.mark.parametrize(
        "n, message",
        [(str(ABOVE_CLASS_CAP), CLASS_CAP_TEXT), ("22", "n=22 exceeds"), ("2", "n >= 3")],
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_n_outside_the_scan_range_rejected_before_any_table_or_worker(
        self, capsys, monkeypatch, n, message, jobs
    ):
        import multiprocessing

        from wienerbounds import enumeration, extremal

        def forbidden(*args, **kwargs):
            raise AssertionError("a weight table or a process context was requested")

        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        monkeypatch.setattr(extremal, "_weight_tables", forbidden)
        monkeypatch.setattr(enumeration, "_rooted_trees", forbidden)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, out, err = run(capsys, "verify", "--n", n, "--weight", "power:1", "--jobs", jobs)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jobs", "0"], "--jobs 0"),
            (["--jobs", "-3"], "--jobs -3"),
            (["--tol", "-1"], "--tol -1.0"),
            (["--tol", "nan"], "--tol nan"),
            (["--tol", "inf"], "--tol inf"),
        ],
    )
    @pytest.mark.parametrize("weight", ["power:1", "power:-1"])
    def test_bad_jobs_or_tol_rejected_before_any_scan(
        self, capsys, monkeypatch, flags, message, weight
    ):
        import multiprocessing

        from wienerbounds import extremal

        def forbidden(*args, **kwargs):
            raise AssertionError("a scan or a process context was started")

        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        monkeypatch.setattr(extremal, "scan_extremes", forbidden)
        monkeypatch.setattr(extremal, "scan_classes", forbidden)
        code, out, err = run(capsys, "verify", "--n", "7", "--weight", weight, *flags)
        assert code == 2 and out == ""
        assert message in err

    def test_csv_quotes_a_field_that_holds_the_separator(self, capsys):
        argv = ["verify", "--n", "4", "--weight", "table:1,2"]
        _, json_out, _ = run(capsys, *argv)
        code, out, _ = run(capsys, "--format", "csv", *argv)
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert len(row) == len(header) == 15
        assert dict(zip(header, row))["weight"] == json.loads(json_out)["weight"] == "table:1.0,2.0"

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--jobs", "2"], ["--jobs"]),
            (["--jobs", "1"], ["--jobs"]),
            (["--tol", "5"], ["--tol"]),
            (["--jobs", "2", "--tol", "5"], ["--jobs", "--tol"]),
        ],
    )
    def test_shard_with_jobs_or_tol_rejected_before_any_scan(
        self, capsys, monkeypatch, flags, named
    ):
        from wienerbounds import extremal

        def forbidden(*args, **kwargs):
            raise AssertionError("a scan was started")

        monkeypatch.setattr(extremal, "scan_classes", forbidden)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ["verify", "--n", "6", "--weight", "power:1", "--shard", "0/2", *flags]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "--shard" in err and all(flag in err for flag in named)

    @pytest.mark.parametrize("weight", ["power:1", "power:-1"])
    def test_empty_shard_has_null_extremes(self, capsys, weight):
        # n = 4 has 2 classes, so shard 50/100 holds none of them
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--weight", weight, "--shard", "50/100"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["graphs_scanned"] == 0
        assert payload["min_value"] is None and payload["max_value"] is None

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("plain", "\t")])
    def test_empty_shard_null_is_an_empty_field(self, capsys, fmt, sep):
        argv = ["verify", "--n", "4", "--weight", "power:1", "--shard", "50/100"]
        _, csv_out, _ = run(capsys, "--format", "csv", *argv)
        code, out, _ = run(capsys, "--format", fmt, *argv)
        assert code == 0
        fields = dict(zip(csv_out.splitlines()[0].split(","), out.splitlines()[-1].split(sep)))
        assert fields["graphs_scanned"] == "0" and fields["partial"] == "True"
        assert fields["min_value"] == "" and fields["max_value"] == ""
        assert "None" not in out


class TestLemmas:
    def test_all_pass_above_boundary(self, capsys):
        # --nmax 3 lies below the first pair r = n = 4, so the sweep is empty
        # and exits 0; any --nmax >= 4 includes the r = n = 4 tie and exits 1
        code, out, _ = run(capsys, "lemmas", "--nmax", "3", "--weight", "power:1")
        assert code == 0 and json.loads(out)["pairs_checked"] == 0

    @pytest.mark.parametrize("nmax", ["1", "3", "4"])
    def test_weight_checked_with_or_without_pairs(self, capsys, nmax):
        code, out, err = run(capsys, "lemmas", "--nmax", nmax, "--weight", "power:0")
        assert code == 2 and out == ""
        assert "not strictly monotone" in err

    def test_table_weight_needs_only_the_distances_the_sweep_reads(self, capsys):
        # the closed forms for n <= 6 read h(1..4), so a table of four values
        # decides every pair, as ``verify --n 6`` accepts the same table
        code, out, _ = run(capsys, "lemmas", "--nmax", "6", "--weight", "table:1,2,3,4")
        assert code == 1
        payload = json.loads(out)
        assert payload["pairs_checked"] == 6 and payload["violations"] == [[4, 4]]

    def test_criterion_4_sweep_accepted(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--nmax", "30", "--weight", "power:1")
        assert code == 1
        payload = json.loads(out)
        assert payload["pairs_checked"] == 378 and payload["violations"] == [[4, 4]]

    def test_nmax_above_the_limit_rejected_before_any_term(self, capsys, monkeypatch):
        from wienerbounds import closed_forms, extremal

        def no_terms(*args, **kwargs):
            raise AssertionError("the sweep was started")

        monkeypatch.setattr(extremal, "check_f3_dominance", no_terms)
        monkeypatch.setattr(closed_forms, "_sum", no_terms)
        nmax = str(LEMMAS_MAX_NMAX + 1)
        code, out, err = run(capsys, "lemmas", "--nmax", nmax, "--weight", "power:1")
        assert code == 2 and out == ""
        assert f"--nmax {nmax}" in err and str(LEMMAS_MAX_NMAX) in err

    def test_nmax_at_the_limit_accepted(self, capsys, monkeypatch):
        from wienerbounds import extremal

        monkeypatch.setattr(extremal, "check_f3_dominance", lambda nmax, h: [])
        nmax = str(LEMMAS_MAX_NMAX)
        code, out, _ = run(capsys, "lemmas", "--nmax", nmax, "--weight", "power:1")
        assert code == 0 and json.loads(out)["nmax"] == LEMMAS_MAX_NMAX

    def test_boundary_tie_reported_as_violation(self, capsys):
        code, out, _ = run(capsys, "lemmas", "--nmax", "12", "--weight", "power:1")
        assert code == 1
        assert json.loads(out)["violations"] == [[4, 4]]

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "lemmas", "--nmax", "5", "--weight", "power:2"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "r,n,ok"
        assert lines[1] == "4,4,False"

    def test_plain_rows(self, capsys):
        code, out, _ = run(
            capsys, "--format", "plain", "lemmas", "--nmax", "5", "--weight", "power:2"
        )
        assert code == 1
        assert out.splitlines() == ["4\t4\tFalse", "4\t5\tTrue", "5\t5\tTrue"]


# the graph of random seed 1428 (Random(1428), n = randint(3, 44) = 36,
# random_unicyclic), the known residual of the whole-tail rebalance
RESIDUAL_EDGES = [
    (0, 32), (1, 11), (1, 12), (1, 17), (2, 6), (2, 15), (3, 10), (4, 5), (4, 10), (5, 20),
    (5, 33), (6, 12), (6, 23), (7, 25), (7, 34), (8, 16), (9, 24), (10, 24), (10, 27),
    (10, 28), (12, 30), (13, 35), (14, 17), (14, 25), (15, 29), (16, 24), (18, 25), (19, 21),
    (19, 32), (20, 23), (21, 25), (22, 28), (24, 35), (26, 31), (26, 34), (31, 35),
]


class TestSearch:
    def test_search_from_triangle_star(self, capsys, j6_file):
        code, out, _ = run(capsys, "search", "--graph", j6_file, "--weight", "power:1")
        assert code == 0
        payload = json.loads(out)
        assert payload["initial_value"] == "24"
        assert payload["final_value"] == "31"
        assert payload["moves"]
        assert all(
            int(m["value_after"]) > int(m["value_before"]) for m in payload["moves"]
        )

    @pytest.mark.parametrize("fmt", ["csv", "plain"])
    def test_only_json_output(self, capsys, j6_file, fmt):
        code, out, err = run(
            capsys, "--format", fmt, "search", "--graph", j6_file, "--weight", "power:1"
        )
        assert code == 2 and out == ""
        assert "only json" in err

    def test_failed_move_is_a_claim_violation(self, capsys, tmp_path):
        # the 36-vertex graph of random seed 1428, where the tail rebalance at
        # (1, 5) drops the index under q3:1.5 after four terminal merges
        p = tmp_path / "g36.txt"
        p.write_text("".join(f"{a} {b}\n" for a, b in RESIDUAL_EDGES))
        code, out, err = run(capsys, "search", "--graph", str(p), "--weight", "q3:1.5")
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert sorted(payload) == ["initial_value", "moves", "violation", "weight"]
        assert "tail-rebalance at (1, 5)" in payload["violation"]
        assert payload["moves"]
        assert all(
            float(m["value_after"]) > float(m["value_before"]) for m in payload["moves"]
        )

    def test_the_old_length_excess_graph_now_succeeds(self, capsys, tmp_path):
        # G12, where moving only the length excess of a tail shortened the
        # distance tail; the whole-tail move raises the index under any weight
        p = tmp_path / "g12.txt"
        p.write_text("0 1\n0 5\n0 6\n1 2\n1 8\n2 3\n2 9\n3 4\n4 5\n4 10\n6 7\n10 11\n")
        weight = "table:1,2,3,4,100,101,102,103,104,105,106"
        code, out, err = run(capsys, "search", "--graph", str(p), "--weight", weight)
        assert code == 0 and err == ""
        moves = json.loads(out)["moves"]
        assert moves[0]["kind"] == "tail-rebalance" and moves[0]["vertices"] == [0, 1]
        assert all(float(m["value_after"]) > float(m["value_before"]) for m in moves)

    def test_search_rejects_tree(self, capsys, tmp_path):
        p = tmp_path / "p5.txt"
        p.write_text("0 1\n1 2\n2 3\n3 4\n")
        code, _, _ = run(capsys, "search", "--graph", str(p), "--weight", "power:1")
        assert code == 2


class TestSubprocessEntryPoint:
    def test_module_invocation_is_deterministic(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "wienerbounds", "verify", "--n", "5", "--weight", "power:1"]
        runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout != b""

    def test_closed_stdout_ends_quietly(self):
        import subprocess
        import sys

        p = subprocess.Popen(
            [sys.executable, "-m", "wienerbounds", "enumerate", "--n", "7"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert p.stdout.readline().startswith(b'{"edges"')
        p.stdout.close()
        err = p.stderr.read()
        assert p.wait(timeout=120) == 141
        assert err == b""

    def test_help_exits_zero(self):
        import subprocess
        import sys

        r = subprocess.run(
            [sys.executable, "-m", "wienerbounds", "--help"], capture_output=True
        )
        assert r.returncode == 0
        assert b"compute" in r.stdout and b"verify" in r.stdout
