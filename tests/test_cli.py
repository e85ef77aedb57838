import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deephole
from deephole import classify, families, numbertheory
from deephole.cli import (
    COMMANDS,
    ExperimentConfig,
    render_csv,
    render_json,
    report_diff,
    run,
    run_command,
)
from deephole.codes import prs, rs
from deephole.gf import make_field

FIXTURES = Path(__file__).parent / "fixtures"


def _run(argv):
    report, code = run_command(argv)
    return report, code


def _cli(*args):
    """Run the CLI in a fresh interpreter that imports the package under test,
    whether or not PYTHONPATH names it."""
    src = str(Path(deephole.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "deephole.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_enum_matches_library():
    report, code = _run(["enum-deep-cosets", "--q", "5", "--k", "3"])
    assert code == 0
    assert report["result"]["total"] == classify.count_deep_cosets(
        prs(make_field(5), 3)
    )
    assert report["result"]["total"] == 100


def test_covering_radius_matches_library():
    report, code = _run(["covering-radius", "--code", "prs", "--q", "5", "--k", "4"])
    assert code == 0
    assert report["result"]["rho"] == 1 == prs(make_field(5), 4).covering_radius()
    report, code = _run(["covering-radius", "--q", "5", "--k", "2"])
    assert code == 0
    assert report["result"]["rho"] == 3 == rs(make_field(5), 2).covering_radius()
    assert report["assertions"]["rho_equals_n_minus_k"]
    report, code = _run(
        ["covering-radius", "--q", "5", "--k", "2", "--set", "1,2,3,4"]
    )
    assert code == 0 and report["result"]["rho"] == 2


def test_ssp_matches_library():
    report, code = _run(["ssp", "--q", "5", "--k", "2"])
    assert code == 0
    g5 = make_field(5)
    assert report["result"]["counts_by_encoding"] == numbertheory.subset_sum_row(
        g5, g5.element_reprs(), 2
    )
    assert report["assertions"]["full_field_counts_positive"]


def test_n3_report():
    report, code = _run(["n3", "--q", "2"])
    assert code == 0
    assert report["result"]["all_match"]
    assert report["result"]["num_rows"] == 3
    assert report["result"]["zero_classes"] == 1
    csv_text = render_csv(report)
    assert csv_text.splitlines()[0] == "q,qpoly,alpha,n3_bruteforce,n3_formula,r3"


def test_family_command():
    report, code = _run(["family", "quadratic", "--q", "5", "--k", "3"])
    assert code == 0
    fams = report["result"]["families"]
    assert len(fams) == 10
    assert all(f["coset_count"] == 24 for f in fams)
    report, code = _run(["family", "degree_k", "--q", "5", "--k", "3"])
    assert code == 0
    assert report["result"]["families"][0]["coset_count"] == 20
    report, code = _run(
        ["family", "zero_sum_free", "--q", "13", "--set", "0,1,2,3,4", "--r", "2"]
    )
    assert code == 0
    assert report["result"]["families"][0]["coset_count"] == 1
    report, code = _run(
        ["family", "inverse_monomial", "--q", "5", "--set", "1,2,3,4", "--k", "2"]
    )
    assert code == 0
    assert report["result"]["num_families"] == 1  # only delta = 0 is outside D


def test_completeness_and_hypergraph():
    report, code = _run(["completeness", "--q", "5"])
    assert code == 0 and report["assertions"]["union_equals_deep_set"]
    report, code = _run(["hypergraph", "--q", "5"])
    assert code == 0
    assert report["result"]["num_vertices"] == 25
    assert all(report["assertions"].values())


def test_cubic_coverage_command():
    report, code = _run(["cubic-coverage", "--q", "5"])
    assert code == 0
    assert report["result"]["total"] == 360


def test_zero_sum_free_command():
    report, code = _run(["zero-sum-free", "--p", "7", "--r", "2"])
    assert code == 0
    assert report["result"]["set"] == [0, 1, 2, 3, 4]
    assert report["result"]["zero_sum_free"] is False
    assert report["result"]["violations"] == [[3, 4]]
    report, code = _run(["zero-sum-free", "--q", "13", "--set", "0,1,2,3,4", "--r", "2"])
    assert code == 0
    assert report["result"]["zero_sum_free"] is True


def test_exit_codes():
    _, code = _run(["enum-deep-cosets", "--k", "3"])  # no field given
    assert code == 1
    _, code = _run(["enum-deep-cosets", "--q", "6", "--k", "3"])  # not a prime power
    assert code == 1
    _, code = _run(["enum-deep-cosets", "--q", "17", "--k", "15"])  # over the guard
    assert code == 1
    _, code = _run(["covering-radius", "--q", "5"])  # missing --k
    assert code == 1
    _, code = _run(["nonsense", "--q", "5"])
    assert code == 1


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("r", [0, -1])
def test_zero_sum_free_rejects_nonpositive_r(q, r):
    report, code = _run(["zero-sum-free", "--q", str(q), "--r", str(r)])
    assert report is None and code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["ssp", "--q", "5", "--k", "1", "--set", "9"],  # encoding outside GF(5)
        ["zero-sum-free", "--q", "5", "--r", "2", "--set", "9,1"],
        ["zero-sum-free", "--q", "5", "--r", "9"],  # default set {0..8} overflows GF(5)
        ["zero-sum-free", "--p", "3", "--r", "5"],
        ["n3", "--p", "3", "--m", "0"],  # no GF(3^0)
    ],
)
def test_inputs_outside_the_field_are_rejected(argv):
    report, code = _run(argv)
    assert report is None and code == 1


@st.composite
def small_argvs(draw):
    """Every command and family tag on a small field, with --k, --r and --set
    drawn in and just outside their ranges, or left out."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "family":
        argv.append(draw(st.sampled_from(families.TAGS)))
    q = draw(st.sampled_from((2, 3, 4, 5, 7)))
    argv += ["--q", str(q)]
    if command == "covering-radius":
        argv += ["--code", draw(st.sampled_from(("rs", "prs")))]
    k = draw(st.none() | st.integers(-1, q + 1))
    if k is not None:
        argv += ["--k", str(k)]
    r = draw(st.none() | st.integers(-1, 4))
    if r is not None:
        argv += ["--r", str(r)]
    shape = draw(st.sampled_from(("none", "none", "subset", "any")))
    if shape != "none":
        encodings = draw(
            st.lists(st.integers(0, q - 1), max_size=q, unique=True)
            if shape == "subset"
            else st.lists(st.integers(-1, q), max_size=q + 1)
        )
        argv.append("--set=" + ",".join(map(str, encodings)))
    return argv


@settings(max_examples=300)
@given(small_argvs())
def test_every_small_input_gets_a_report_or_exit_1(argv):
    report, code = _run(argv)
    assert code in (0, 1)
    assert (report is None) == (code == 1)


@pytest.mark.parametrize("q, k", [(4, 2), (8, 6)])
def test_enum_exceptional_radius_is_informational(q, k):
    # even q with k in {2, q-2}: rho = q-k+1, outside the counting theorems.
    # The exhaustive oracle finds q-1 syndromes at distance rho: (0, c, 0).
    report, code = _run(["enum-deep-cosets", "--q", str(q), "--k", str(k)])
    assert code == 0
    assert report["result"]["total"] == q - 1
    assert not report["result"]["in_theorem_range"]
    assert report["assertions"] == {}


def test_n3_over_the_table_limit_exits_before_any_quadratic(monkeypatch, capsys):
    # n3 --q 67 needs GF(67^2), and 67^2 = 4489 exceeds TABLE_LIMIT
    def per_quadratic_work(qpoly):
        raise AssertionError("n3 started per-quadratic work")

    monkeypatch.setattr(numbertheory, "QuadraticExtension", per_quadratic_work)
    report, code = _run(["n3", "--q", "67", "--unsafe-bounds"])
    assert report is None and code == 1
    err = capsys.readouterr().err
    assert "exceeds table limit 4096" in err and "Traceback" not in err


def test_size_guard_env(monkeypatch):
    monkeypatch.setenv("DEEPHOLE_MAX_Q", "17")
    report, code = _run(["enum-deep-cosets", "--q", "17", "--k", "15"])
    assert code == 0
    assert report["result"]["total"] == 16 * 17 * 17
    monkeypatch.setenv("DEEPHOLE_MAX_Q", "5")
    _, code = _run(["enum-deep-cosets", "--q", "7", "--k", "5"])
    assert code == 1


def test_unsafe_bounds_flag():
    report, code = _run(["enum-deep-cosets", "--q", "17", "--k", "15", "--unsafe-bounds"])
    assert code == 0 and report["result"]["total"] == 16 * 17 * 17


def test_reports_are_deterministic():
    a, _ = _run(["completeness", "--q", "5", "--threads", "1"])
    b, _ = _run(["completeness", "--q", "5", "--threads", "4"])
    a = dict(a)
    b = dict(b)
    a["config"] = dict(a["config"], threads=None)
    b["config"] = dict(b["config"], threads=None)
    assert render_json(a) == render_json(b)
    x, _ = _run(["n3", "--q", "3"])
    y, _ = _run(["n3", "--q", "3"])
    assert render_json(x) == render_json(y)


def test_report_diff():
    a, _ = _run(["enum-deep-cosets", "--q", "5", "--k", "3"])
    b, _ = _run(["enum-deep-cosets", "--q", "5", "--k", "3"])
    assert report_diff(a, b) == []
    b["result"]["total"] = 99
    diff = report_diff(a, b)
    assert len(diff) == 1
    assert diff[0]["path"] == "result.total"
    assert (diff[0]["a"], diff[0]["b"]) == (100, 99)
    c, _ = _run(["n3", "--q", "2"])
    with pytest.raises(ValueError):
        report_diff(a, c)


def test_golden_fixtures():
    cases = {
        "enum-deep-cosets_q5_k3.json": ["enum-deep-cosets", "--q", "5", "--k", "3"],
        "covering-radius_prs_q5_k4.json": [
            "covering-radius", "--code", "prs", "--q", "5", "--k", "4",
        ],
        "n3_q2.json": ["n3", "--q", "2"],
    }
    for name, argv in cases.items():
        golden = json.loads((FIXTURES / name).read_text())
        fresh, code = _run(argv)
        assert code == 0
        assert report_diff(golden, fresh) == []


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    cfg = ExperimentConfig(command="enum-deep-cosets", q=5, k=3, out=str(out))
    report, code = run(cfg)
    assert code == 0
    # main() writes the file; emulate it through the console path
    rc = _cli("enum-deep-cosets", "--q", "5", "--k", "3", "--out", str(out))
    assert rc.returncode == 0 and rc.stdout == ""
    assert json.loads(out.read_text())["result"]["total"] == 100


def test_console_entry_point_json():
    rc = _cli("enum-deep-cosets", "--q", "5", "--k", "3")
    assert rc.returncode == 0
    assert json.loads(rc.stdout)["result"]["total"] == 100
    rc2 = _cli("enum-deep-cosets", "--q", "5", "--k", "3")
    assert rc2.stdout == rc.stdout  # byte-identical reruns


def test_rejected_config_produces_no_output():
    rc = _cli("enum-deep-cosets", "--q", "99", "--k", "3")
    assert rc.returncode == 1
    assert rc.stdout == ""
    assert rc.stderr and "Traceback" not in rc.stderr
