import json

import pytest

from scrollsec import delpezzo
from scrollsec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_two_points(capsys):
    code, out = run_cli(
        capsys, "classify", "--scroll", "S(3)", "--point", "1,0,0,1", "--q", "7"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    r = rep["result"]
    assert r["label"] == "TwoPoints"
    assert r["depth"] == 2
    assert r["acm"] is True
    assert r["agreement"] is True
    assert r["memberships"]["Sec"] is True and r["memberships"]["Tan"] is False
    assert r["point"] == ["1", "0", "0", "1"]


def test_classify_conic(capsys):
    code, out = run_cli(
        capsys, "classify", "--scroll", "S(1,2)", "--point", "0,0,1,0,-1", "--q", "7"
    )
    assert code == 0
    r = json.loads(out)["result"]
    assert r["label"] == "Conic"
    assert r["depth"] == 3
    assert r["acm"] is True
    assert r["del_pezzo_case"] == "surface-cubic"


def test_classify_cone_depth_shift(capsys):
    code, out = run_cli(
        capsys, "classify", "--scroll", "S(3)+cone(0)", "--point", "0,1,0,0,1", "--q", "7"
    )
    assert code == 0
    r = json.loads(out)["result"]
    assert r["label"] == "TwoPoints"
    assert r["depth"] == 3
    assert r["dim_sigma"] == 1


def test_classify_rejects_point_on_scroll(capsys):
    code, _ = run_cli(
        capsys, "classify", "--scroll", "S(3)", "--point", "1,0,0,0", "--q", "7"
    )
    assert code == 65


def test_classify_rejects_wrong_length_point(capsys):
    code, out = run_cli(
        capsys, "classify", "--scroll", "S(3)", "--point", "1,0,0,1,1", "--q", "7"
    )
    assert code == 64
    assert out == ""


def test_classify_rejects_zero_point(capsys):
    code, out = run_cli(
        capsys, "classify", "--scroll", "S(3)", "--point", "0,7,0,-14", "--q", "7"
    )
    assert code == 64
    assert out == ""


def test_classify_rejects_bad_scroll(capsys):
    code, _ = run_cli(
        capsys, "classify", "--scroll", "S(1,1)", "--point", "1,0,0,0", "--q", "7"
    )
    assert code == 64


def test_sample_s111_all_quadric(capsys):
    code, out = run_cli(
        capsys, "sample", "--scroll", "S(1,1,1)", "--n", "60", "--q", "101", "--seed", "5"
    )
    assert code == 0
    census = json.loads(out)["result"]["census"]
    assert census["QuadricSurface"] == 60
    assert sum(census.values()) == 60


def test_sample_s12_conic_and_two_lines_only(capsys):
    code, out = run_cli(
        capsys, "sample", "--scroll", "S(1,2)", "--n", "200", "--q", "101", "--seed", "11"
    )
    assert code == 0
    res = json.loads(out)["result"]
    census = res["census"]
    assert res["agreement_failures"] == 0
    assert census["Conic"] + census["TwoLines"] == 200
    assert census["Conic"] > 0


def test_sample_s1123_census(capsys):
    code, out = run_cli(
        capsys, "sample", "--scroll", "S(1,1,2,3)", "--n", "500", "--q", "101",
        "--seed", "3",
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["agreement_failures"] == 0
    assert res["unclassifiable"] == 0
    assert sum(res["census"].values()) == 500


def test_atlas_small(capsys):
    code, out = run_cli(
        capsys, "atlas", "--max-deg", "3", "--max-n", "2", "--max-h", "-1",
        "--q", "101", "--verify-samples", "10",
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["verified"] is True
    scrolls = {e["scroll"] for e in res["entries"]}
    assert scrolls == {"S(3)", "S(1,2)"}
    for e in res["entries"]:
        assert e["verify"]["inside_acm"] == e["verify"]["inside_total"]
        assert e["verify"]["outside_acm"] == 0


def test_atlas_includes_s22(capsys):
    code, out = run_cli(
        capsys, "atlas", "--max-deg", "4", "--max-n", "3", "--max-h", "0",
        "--q", "101", "--verify-samples", "5",
    )
    assert code == 0
    res = json.loads(out)["result"]
    cases = {e["scroll"]: e["case"] for e in res["entries"]}
    assert cases["S(2,2)"] == "surface-conic-segre"
    assert cases["S(1,1,1)+cone(0)"] == "threefold-full"


def test_oracle_check_s3(capsys):
    code, out = run_cli(
        capsys, "oracle-check", "--scroll", "S(3)", "--q", "5", "--n", "6", "--seed", "1"
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["diffs"] == []


def test_oracle_check_cone(capsys):
    code, out = run_cli(
        capsys, "oracle-check", "--scroll", "S(3)+cone(0)", "--q", "5", "--n", "4",
        "--seed", "2",
    )
    assert code == 0
    assert json.loads(out)["result"]["diffs"] == []


def test_unknown_option_is_a_usage_error(capsys):
    # argparse would exit 2, the code of an unclassifiable signature
    code = main(["classify", "--scroll", "S(3)", "--point", "1,4,4,1", "--q", "7",
                 "--dmax", "1"])
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith("usage: scrollsec")
    assert "--dmax" in err


def test_broken_invariant_exits_3(capsys, monkeypatch):
    # a Del Pezzo family tag that contradicts the derived locus kind
    monkeypatch.setattr(delpezzo, "atlas_case_for", lambda a: ("forced", "bogus"))
    code, out = run_cli(capsys, "atlas", "--max-deg", "3", "--verify-samples", "1")
    assert code == 3
    assert out == ""


def test_unwritable_out_file_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code = main(["classify", "--scroll", "S(3)", "--point", "1,0,0,1", "--q", "7",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err


@pytest.mark.parametrize("argv", [
    ["sample", "--scroll", "S(3)", "--q", "7", "--n", "-4"],
    ["oracle-check", "--scroll", "S(3)", "--q", "5", "--n", "-1"],
    ["atlas", "--max-deg", "3", "--max-n", "1", "--max-h", "-1", "--verify-samples", "-1"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    # not an empty census (exit 0) or an atlas read as failing its checks (exit 3)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "must be >= 0" in captured.err


def test_oracle_check_rejects_big_q(capsys):
    code, _ = run_cli(
        capsys, "oracle-check", "--scroll", "S(3)", "--q", "10007", "--n", "1"
    )
    assert code == 64


def test_determinism_byte_identical(capsys, tmp_path):
    args = [
        "sample", "--scroll", "S(1,2)", "--n", "40", "--q", "101", "--seed", "9",
    ]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, *args, "--out", str(p1))
    run_cli(capsys, *args, "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
