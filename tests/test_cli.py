import json

import pytest

from scrollsec import ScrollsecError, cli, delpezzo, parse_scroll
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


def test_a_point_with_a_leading_minus_reads_with_or_without_equals(capsys):
    """argparse reads "-1,..." after a space as an option; the CLI joins it
    to --point, or to an abbreviation of it, so every spelling gives the same
    report."""
    argv = ["classify", "--scroll", "S(1,2)", "--q", "7"]
    spaced = run_cli(capsys, *argv, "--point", "-1,0,1,0,-1")
    joined = run_cli(capsys, *argv, "--point=-1,0,1,0,-1")
    assert spaced == joined == run_cli(capsys, *argv, "--poi", "-1,0,1,0,-1")
    assert spaced[0] == 0
    assert json.loads(spaced[1])["result"]["point"] == ["1", "0", "6", "0", "1"]


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


def test_oracle_check_names_the_points_of_a_locus_diff(capsys, monkeypatch):
    """A fast locus that misses one point makes `oracle-check` exit 3 with a
    secant-locus-set diff that names the missing point among its brute-only
    examples, sorted and at most 3 a side."""
    from scrollsec import cli

    dropped = []

    def lossy(*args):
        points = real(*args)
        if points:
            dropped.append(min(points))
            points = points - {min(points)}
        return points

    real = cli.secant_locus_points
    monkeypatch.setattr(cli, "secant_locus_points", lossy)
    code, out = run_cli(
        capsys, "oracle-check", "--scroll", "S(3)", "--q", "5", "--n", "3", "--seed", "1"
    )
    assert code == 3
    locus_diffs = [d for d in json.loads(out)["result"]["diffs"] if d["kind"] == "secant-locus-set"]
    assert dropped and len(locus_diffs) == len(dropped)
    for diff, point in zip(locus_diffs, dropped):
        assert diff["brute_size"] == diff["fast_size"] + 1
        assert diff["brute_only"] == [[str(x) for x in point]]
        assert diff["fast_only"] == []
    assert cli._examples({(3, 0), (1, 2), (2, 0), (1, 1)}) == [["1", "1"], ["1", "2"], ["2", "0"]]


def test_unknown_option_is_a_usage_error(capsys):
    # argparse would exit 2, the code of an unclassifiable signature
    code = main(["classify", "--scroll", "S(3)", "--point", "1,4,4,1", "--q", "7",
                 "--dmax", "1"])
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith("usage: scrollsec")
    assert "--dmax" in err


def test_broken_invariant_exits_3(capsys, monkeypatch):
    # with every draw on the scroll, sampling inside a locus gives up
    monkeypatch.setattr(delpezzo, "contains", lambda spec, ctx, p: True)
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
    ["oracle-check", "--scroll", "S(3)", "--q", "5", "--budget", "-1"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    # not an empty census (exit 0), an atlas read as failing its checks (exit 3)
    # or an oracle run read as over budget (exit 66)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "must be >= 0" in captured.err


@pytest.mark.parametrize("flag,value,low", [
    ("--max-deg", "-1", 3),
    ("--max-deg", "2", 3),
    ("--max-n", "0", 1),
    ("--max-h", "-2", -1),
])
def test_atlas_bounds_below_the_smallest_scroll_are_usage_errors(capsys, flag, value, low):
    # an atlas bounded to no scroll would print no entries and "verified": true
    code = main(["atlas", "--verify-samples", "1", flag, value])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert f"must be >= {low}, got {value}" in captured.err


def test_oracle_check_rejects_big_q(capsys):
    code, _ = run_cli(
        capsys, "oracle-check", "--scroll", "S(3)", "--q", "10007", "--n", "1"
    )
    assert code == 64


def test_sample_over_a_61_bit_prime(capsys):
    """2^61 - 1 is decided by Miller-Rabin at once; classification runs on
    plain ints, so a modulus this large is sound."""
    code, out = run_cli(
        capsys, "sample", "--scroll", "S(1,2)", "--n", "5", "--q", str(2**61 - 1)
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["agreement_failures"] == 0
    assert sum(res["census"].values()) == 5


def test_q_beyond_the_primality_bound_is_a_usage_error(capsys):
    code, out = run_cli(
        capsys, "sample", "--scroll", "S(1,2)", "--n", "5", "--q", str(2**89 - 1)
    )
    assert code == 64
    assert out == ""


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


@pytest.mark.parametrize("argv", [
    ["classify", "--scroll", "S(100000)", "--point", "1,0", "--q", "7"],
    ["sample", "--scroll", "S(1,64)", "--n", "1"],
    ["sample", "--scroll", "S(3)+cone(65)", "--n", "1"],
    ["oracle-check", "--scroll", "S(30,35)", "--q", "3", "--n", "1"],
])
def test_scrolls_past_the_size_bound_are_usage_errors(capsys, argv):
    # S(100000) would ask for C(100000, 2) quadric generators
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert f"<= {cli.SIZE_MAX}" in captured.err


@pytest.mark.parametrize("flag", ["--max-deg", "--max-h"])
def test_atlas_bounds_past_the_size_bound_are_usage_errors(capsys, flag):
    # atlas_enumerate is cubic in --max-deg
    value = str(cli.SIZE_MAX + 1)
    code = main(["atlas", "--verify-samples", "0", flag, value])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert f"must be <= {cli.SIZE_MAX}, got {value}" in captured.err


def test_the_size_bound_itself_is_accepted(capsys):
    code = main(["sample", "--scroll", f"S(1,{cli.SIZE_MAX - 1})+cone(1)", "--n", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"]["agreement_failures"] == 0


@pytest.mark.parametrize("argv", [
    ["sample", "--scroll", "S(3)", "--n", str(10**10)],
    ["oracle-check", "--scroll", "S(3)", "--q", "5", "--n", str(10**10)],
    ["atlas", "--max-deg", "3", "--verify-samples", str(10**10)],
])
def test_counts_past_the_count_bound_are_usage_errors(capsys, argv):
    # the parser is asked first: without the bound it accepts the count, and
    # the test fails here instead of starting a run of 10^10 points
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert f"must be <= {cli.COUNT_MAX}" in captured.err


def test_the_count_bound_itself_is_accepted():
    bound = str(cli.COUNT_MAX)
    parser = cli.build_parser()
    assert parser.parse_args(["sample", "--scroll", "S(3)", "--n", bound]).n == cli.COUNT_MAX
    assert parser.parse_args(["oracle-check", "--scroll", "S(3)", "--n", bound]).n == cli.COUNT_MAX
    assert parser.parse_args(["atlas", "--verify-samples", bound]).verify_samples == cli.COUNT_MAX


# the exit codes the module docstring and the README document
DOCUMENTED_EXITS = {0, 2, 3, 64, 65, 66}


def _fuzz_scroll(rng):
    """A scroll literal: mostly small valid ones, else huge or malformed."""
    kind = rng.random()
    if kind < 0.75:
        a = rng.choice(["3", "4", "1,2", "1,3", "2,2", "1,1,1", "1,1,2", "2,3", "1,2,2"])
        return f"S({a})" + rng.choice(["", "", "+cone(0)", "+cone(1)", "+cone(-1)"])
    if kind < 0.85:
        return rng.choice([
            f"S({10 ** rng.randint(2, 9)})", f"S(1,{cli.SIZE_MAX})",
            f"S(3)+cone({10 ** rng.randint(2, 12)})", "S(" + ",".join(["1"] * 70) + ")",
        ])
    return rng.choice([
        "", "S()", "S(1,2", "S(0,3)", "S(-1,4)", "S(1.5,2)", "T(1,2)", "S(1,1)",
        "S(1,2)+cone(-2)", "S(1,2)+cone()", "S(1, 2)", " S(3) ", "S(3)+cone(0)x",
        "".join(rng.choice("S(),+cone0123456789-") for _ in range(rng.randint(1, 12))),
    ])


def _fuzz_q(rng, primes):
    """Mostly one of primes; else composite, 2, non-positive or huge."""
    if rng.random() < 0.75:
        return str(rng.choice(primes))
    return str(rng.choice([0, 1, -7, 2, 9, 15, 10007 * 3, 2**89 - 1, 10**30]))


def _fuzz_count(rng, high):
    return str(rng.randint(0, high) if rng.random() < 0.85 else rng.choice([-1, -10**9]))


def _fuzz_point(rng, scroll):
    """Coordinates of the scroll's length when it parses, sometimes the first
    unit vector, which lies on every scroll; else any length or malformed.
    A literal past the size bound gets a short point: the CLI refuses it."""
    try:
        nv = min(parse_scroll(scroll).ambient + 1, rng.randint(0, 9) + 12)
    except ScrollsecError:
        nv = rng.randint(0, 9)
    kind = rng.random()
    if kind < 0.2:
        return ",".join(["1"] + ["0"] * (nv - 1))
    if kind < 0.8:
        return ",".join(str(rng.choice([0, 1, -1, rng.randint(-50, 50), 10**20])) for _ in range(nv))
    return rng.choice(["", " ", "1,,2", "a,1", "1,2,", ",".join(["0"] * nv), "1," * rng.randint(0, 9) + "1"])


def _fuzz_argv(rng):
    command = rng.choice(["classify"] * 4 + ["sample", "sample", "atlas", "atlas",
                                             "oracle-check", "oracle-check", "bogus"])
    if command == "classify":
        scroll = _fuzz_scroll(rng)
        argv = [command, "--scroll", scroll, "--point", _fuzz_point(rng, scroll),
                "--q", _fuzz_q(rng, [3, 5, 7, 11, 10007, 2**61 - 1])]
    elif command == "sample":
        argv = [command, "--scroll", _fuzz_scroll(rng), "--n", _fuzz_count(rng, 3),
                "--q", _fuzz_q(rng, [3, 5, 7, 11, 10007, 2**61 - 1])]
    elif command == "atlas":
        argv = [command, "--verify-samples", _fuzz_count(rng, 1),
                "--q", _fuzz_q(rng, [5, 7, 11, 10007]),
                "--max-deg", str(rng.choice([3, 4, 5, 2, cli.SIZE_MAX + 1, 10**9])),
                "--max-n", str(rng.choice([1, 2, 10**9, 0])),
                "--max-h", str(rng.choice([-1, 0, -2, cli.SIZE_MAX + 1, 10**9]))]
    elif command == "oracle-check":
        argv = [command, "--scroll", _fuzz_scroll(rng), "--n", _fuzz_count(rng, 2),
                "--q", _fuzz_q(rng, [3, 5, 7, 101]), "--d", str(rng.choice([1, 2, 2, 2, 0])),
                "--budget", rng.choice(["0", "50", "3000", "-1"])]
    else:
        argv = [command]
    if rng.random() < 0.2:
        argv += ["--seed", str(rng.choice([-5, 0, 10**30]))]
    if rng.random() < 0.05:
        argv.append(rng.choice(["--frobnicate", "--q", "--n=x"]))
    return argv


def test_cli_fuzz_exits_with_a_documented_code(capsys):
    """Seeded random argument lists, malformed and oversized ones among them,
    run in process: each returns a documented exit code and none raises."""
    import random

    rng = random.Random(2026)
    seen = set()
    for _ in range(400):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - the failure names the input
            pytest.fail(f"{argv} raised {type(exc).__name__}: {exc}")
        capsys.readouterr()
        assert code in DOCUMENTED_EXITS, argv
        seen.add(code)
    # the generator reaches success, usage errors, points on the scroll and
    # tables over budget
    assert {0, 64, 65, 66} <= seen
