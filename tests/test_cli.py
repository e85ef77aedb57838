import contextvars
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deephole
from deephole import classify, cli, codes, families, numbertheory
from deephole.cli import (
    COMMANDS,
    ExperimentConfig,
    render_csv,
    render_json,
    run,
    run_command,
)
from deephole.codes import prs, rs
from deephole.gf import make_field
from deephole.poly import monic_irreducibles
from deephole.table import Table

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


def _rows_view(obj):
    if isinstance(obj, Table):
        return obj.rows()
    if isinstance(obj, dict):
        return {k: _rows_view(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rows_view(v) for v in obj]
    return obj


def _first_difference(a: str, b: str):
    """None when the texts are equal, else the first differing line of each
    (pytest's own diff of two long texts takes minutes)."""
    if a == b:
        return None
    la, lb = a.split("\n"), b.split("\n")
    i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    return i, la[i : i + 1], lb[i : i + 1]


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


def test_n3_csv_matches_golden_fixture():
    report, code = _run(["n3", "--q", "3", "--format", "csv"])
    assert code == 0
    golden = (FIXTURES / "n3_q3.csv").read_bytes().decode()
    assert _first_difference(render_csv(report), golden) is None


def test_ssp_counts_are_checked_against_the_closed_forms(monkeypatch):
    for q in (4, 5, 8, 9):
        nonzero = ",".join(map(str, range(1, q)))
        for extra in ([], ["--set", nonzero]):
            report, code = _run(["ssp", "--q", str(q), "--k", "2", *extra])
            assert code == 0
    real = numbertheory.subset_sum_closed_row

    def off_by_one(field, k, nonzero=False):
        return [c + (g == 1) for g, c in enumerate(real(field, k, nonzero))]

    monkeypatch.setattr(numbertheory, "subset_sum_closed_row", off_by_one)
    for extra in ([], ["--set", "1,2,3,4"]):
        report, code = _run(["ssp", "--q", "5", "--k", "2", *extra])
        assert report is None and code == 2
    # other sets have no closed form to check against
    report, code = _run(["ssp", "--q", "5", "--k", "2", "--set", "0,1,2"])
    assert code == 0


def test_family_command():
    report, code = _run(["family", "quadratic", "--q", "5", "--k", "3"])
    assert code == 0
    fams = report["result"]["families"].rows()
    assert len(fams) == 10
    assert all(f["coset_count"] == 24 for f in fams)
    report, code = _run(["family", "degree_k", "--q", "5", "--k", "3"])
    assert code == 0
    assert report["result"]["families"].rows()[0]["coset_count"] == 20
    report, code = _run(
        ["family", "zero_sum_free", "--q", "13", "--set", "0,1,2,3,4", "--r", "2"]
    )
    assert code == 0
    assert report["result"]["families"].rows()[0]["coset_count"] == 1
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


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_zero_sum_free_verdict_matches_enumeration(p):
    explicit = tuple(range(1, p, 2))
    cases = [(None, r) for r in range(2, p + 1) if p // r + r <= p]
    cases += [(explicit, r) for r in range(2, len(explicit) + 1)]
    for D, r in cases:
        argv = ["zero-sum-free", "--p", str(p), "--r", str(r)]
        if D is not None:
            argv += ["--set", ",".join(map(str, D))]
        report, code = _run(argv)
        assert code == 0, argv
        res = report["result"]
        zero_sums = [
            list(s) for s in itertools.combinations(res["set"], r) if sum(s) % p == 0
        ]
        assert res["zero_sum_free"] == (not zero_sums), argv
        assert res["violations"] == zero_sums[:10], argv


def test_zero_sum_free_disagreement_exits_2(monkeypatch):
    monkeypatch.setattr(numbertheory, "zero_sum_violations", lambda *a, **kw: [])
    report, code = _run(["zero-sum-free", "--p", "7", "--r", "2"])  # 3 + 4 = 0
    assert report is None and code == 2


def test_a_false_assertion_gives_the_full_report_and_exit_2(monkeypatch, capsys):
    real = numbertheory.n3_sweep

    def formula_off(field):
        cols = dict(real(field).columns)
        cols["n3_formula"] = cols["n3_formula"] + 1
        return Table(cols)

    monkeypatch.setattr(numbertheory, "n3_sweep", formula_off)
    report, code = _run(["n3", "--q", "3"])
    assert code == 2
    assert set(report) == {"command", "config", "field", "result", "assertions"}
    assert report["command"] == "n3" and report["field"]["q"] == 3
    assert report["assertions"] == {"formula_matches_bruteforce": False}
    assert not report["result"]["all_match"]
    assert cli.main(["n3", "--q", "3"]) == 2
    assert capsys.readouterr().out == render_json(report)


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
    def enumeration(field, d):
        raise AssertionError("n3 started enumerating irreducibles")

    monkeypatch.setattr(numbertheory, "monic_irreducibles", enumeration)
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


@pytest.mark.parametrize("value", ["abc", "0", "-3", ""])
def test_a_malformed_size_guard_is_named_unless_the_flag_lifts_it(
    value, monkeypatch, capsys
):
    monkeypatch.setenv("DEEPHOLE_MAX_Q", value)
    report, code = _run(["ssp", "--q", "5", "--k", "2", "--unsafe-bounds"])
    assert code == 0 and report is not None
    report, code = _run(["ssp", "--q", "5", "--k", "2"])
    assert report is None and code == 1
    err = capsys.readouterr().err
    assert "DEEPHOLE_MAX_Q" in err and "Traceback" not in err


def test_family_quadratic_total_is_checked_at_k_q_minus_2(monkeypatch, capsys):
    # at odd q and k = q-2 the quadratic families cover all (q-1)q^2 deep
    # cosets; one family alone covers q^2-1 of them
    monkeypatch.setattr(
        cli, "monic_irreducibles", lambda field, d: monic_irreducibles(field, d)[:1]
    )
    report, code = _run(["family", "quadratic", "--q", "5", "--k", "3"])
    assert report is None and code == 2
    err = capsys.readouterr().err
    assert "cover 24 cosets" in err and "100 deep cosets" in err
    # below k = q-2 the total is not a theorem's count, and is not checked
    report, code = _run(["family", "quadratic", "--q", "5", "--k", "2"])
    assert code == 0 and report["result"]["total_distinct_cosets"] == 24


def test_unsafe_bounds_flag():
    report, code = _run(["enum-deep-cosets", "--q", "17", "--k", "15", "--unsafe-bounds"])
    assert code == 0 and report["result"]["total"] == 16 * 17 * 17


@pytest.mark.parametrize("unsafe", [[], ["--unsafe-bounds"]], ids=["guarded", "unsafe"])
@pytest.mark.parametrize(
    "field",
    [
        ["--q", "1000000000000000009"],
        ["--p", "1000000000000000009"],
        ["--p", "3", "--m", "100000000"],
    ],
    ids=" ".join,
)
def test_huge_fields_are_rejected_before_any_work(field, unsafe, monkeypatch, capsys):
    # the size is compared with the bound before factoring, testing
    # primality or taking p^m
    monkeypatch.delenv("DEEPHOLE_MAX_Q", raising=False)
    start = time.perf_counter()
    report, code = _run(["ssp", *field, "--k", "2", *unsafe])
    assert time.perf_counter() - start < 2
    assert report is None and code == 1
    err = capsys.readouterr().err
    assert "exceeds" in err and "Traceback" not in err


def test_out_of_memory_exits_1(monkeypatch, capsys):
    def no_memory(field, columns):
        raise MemoryError("Unable to allocate 1.77 TiB for an array")

    monkeypatch.setattr(codes, "_leader_weights", no_memory)
    report, code = _run(["covering-radius", "--code", "prs", "--q", "5", "--k", "2"])
    assert report is None and code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


def test_unsafe_bounds_lifts_the_limits_for_one_run():
    tight = codes.Limits(codewords=10, syndromes=100)
    ctx = contextvars.copy_context()
    ctx.run(codes.LIMITS.set, tight)
    argv = ["covering-radius", "--code", "prs", "--q", "5", "--k", "2"]  # 5^4 syndromes
    assert ctx.run(_run, argv) == (None, 1)
    report, code = ctx.run(_run, argv + ["--unsafe-bounds"])
    assert code == 0 and report["result"]["rho"] == 3
    assert ctx.run(codes.LIMITS.get) == tight
    assert codes.LIMITS.get() == codes.Limits()


def _readme_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = (line.split("#")[0].split() for block in blocks for line in block.splitlines())
    return [words[1:] for words in lines if words[:1] == ["deephole"]]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_commands_run(argv):
    report, code = _run(argv)
    assert code == 0 and report is not None


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


SMALL_ARGVS = [
    ["covering-radius", "--code", "prs", "--q", "5", "--k", "3"],
    ["covering-radius", "--q", "4", "--k", "2"],
    ["enum-deep-cosets", "--q", "5", "--k", "3"],
    ["family", "quadratic", "--q", "5", "--k", "3"],
    ["family", "cubic", "--q", "5"],
    ["family", "degree_k", "--q", "5", "--k", "3"],
    ["family", "inverse_monomial", "--q", "5", "--set", "1,2,3,4", "--k", "2"],
    ["family", "zero_sum_free", "--q", "7", "--set", "0,1,2,3", "--r", "2"],
    ["completeness", "--q", "5"],
    ["hypergraph", "--q", "5"],
    ["cubic-coverage", "--q", "5"],
    ["ssp", "--q", "7", "--k", "3"],
    ["zero-sum-free", "--p", "7", "--r", "2"],
    *(["n3", "--q", str(q)] for q in (2, 3, 4, 5, 7, 8, 9)),
]


@pytest.mark.parametrize("argv", SMALL_ARGVS, ids=" ".join)
def test_render_json_equals_json_dumps_of_the_rows(argv):
    report, code = _run(argv)
    assert code == 0
    if argv[0] == "n3":
        assert isinstance(report["result"]["rows"], Table)
    expected = json.dumps(_rows_view(report), sort_keys=True, indent=2) + "\n"
    assert _first_difference(render_json(report), expected) is None


def test_render_json_splices_tables_at_every_depth():
    def table(n):
        return Table({"b": np.arange(n), "a": np.arange(2 * n).reshape(n, 2)})

    report = {
        "z": table(3),
        "m": {"x": [table(1), "s", {"deep": table(2)}], "e": table(0)},
        "a": 1,
        "t": [table(2)],
    }
    expected = json.dumps(_rows_view(report), sort_keys=True, indent=2) + "\n"
    assert _first_difference(render_json(report), expected) is None
    with pytest.raises(ValueError):
        render_json({"t": table(1), "s": "\0table"})


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_render_json_is_the_same_in_any_row_blocks(rows, monkeypatch):
    # 7 rows: one block, full blocks, and ragged last blocks
    report = {"t": Table({"b": np.arange(7), "a": np.arange(14).reshape(7, 2)}), "x": 1}
    expected = render_json(report)
    monkeypatch.setattr(deephole.table, "RENDER_ROWS", rows)
    assert render_json(report) == expected


def test_the_parser_is_built_once_and_reused(monkeypatch, capsys):
    # built on the first call, not at import
    probe = "import deephole.cli as c; print(c._parser.cache_info().currsize)"
    src = str(Path(deephole.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "0", out.stderr
    build, built = cli.build_parser, []

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv, code in [
        (["family", "bogus", "--q", "5"], 1),
        (["ssp", "--q", "5", "--k", "2"], 0),
        (["ssp", "--k", "2"], 1),
        (["nonsense"], 1),
        (["ssp", "--q", "5", "--k", "2"], 0),
    ]:
        assert run_command(argv)[1] == code, argv
    assert len(built) == 1
    assert capsys.readouterr().err.count("usage error") == 3


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
        assert json.loads(render_json(fresh)) == golden


def test_family_reports_match_recorded_digests():
    # SHA-256 of render_json and of render_csv for the family, hypergraph,
    # completeness and cubic-coverage reports up to the sizes of the benchmark
    # sweep, the hypergraph report (the one that prints class representatives)
    # at every odd q from 5 to 13, and for the n3 reports at q in {4, 5, 7, 8, 9, 11, 13, 16, 17}:
    # both r3 branches, prime and extension fields
    digests = json.loads((FIXTURES / "report_digests.json").read_text())
    csv_digests = json.loads((FIXTURES / "csv_digests.json").read_text())
    assert set(csv_digests) == set(digests)
    for argv, digest in digests.items():
        report, code = _run(argv.split())
        assert code == 0, argv
        assert hashlib.sha256(render_json(report).encode()).hexdigest() == digest, argv
        csv_digest = hashlib.sha256(render_csv(report).encode()).hexdigest()
        assert csv_digest == csv_digests[argv], argv


# every family tag at q in {4, 5, 7, 8, 9, 11, 13, 16}, with k = q-2 and
# q-3 and the sets of the other family tests: the SHA-256 of the JSON report,
# or the exit code and message of a rejected configuration
_FAMILY_TAG_CASES = json.loads((FIXTURES / "family_tag_cases.json").read_text())


@pytest.mark.parametrize("argv", list(_FAMILY_TAG_CASES))
def test_every_family_tag_gives_its_recorded_report_or_error(argv, capsys):
    recorded = _FAMILY_TAG_CASES[argv]
    report, code = _run(argv.split())
    if isinstance(recorded, str):
        assert code == 0
        assert hashlib.sha256(render_json(report).encode()).hexdigest() == recorded
    else:
        assert (report, code) == (None, recorded["exit"])
        assert capsys.readouterr().err == recorded["stderr"]


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    cfg = ExperimentConfig(command="enum-deep-cosets", q=5, k=3, out=str(out))
    report, code = run(cfg)
    assert code == 0
    # main() writes the file; emulate it through the console path
    rc = _cli("enum-deep-cosets", "--q", "5", "--k", "3", "--out", str(out))
    assert rc.returncode == 0 and rc.stdout == ""
    assert json.loads(out.read_text())["result"]["total"] == 100


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_an_unwritable_out_path_exits_1(where, tmp_path):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
    rc = _cli("enum-deep-cosets", "--q", "5", "--k", "3", "--out", str(out))
    assert rc.returncode == 1 and rc.stdout == ""
    assert rc.stderr.startswith("error: ") and "Traceback" not in rc.stderr
    assert list(tmp_path.iterdir()) == []


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


_TRACED_COMMAND = """
import json, sys
sys.path.insert(0, sys.argv[1])
import deephole.cli
import spans

tracer = spans.Tracer()
tracer.install()
report, code = deephole.cli.run_command(sys.argv[2:])
metrics = spans.layer_metrics(tracer.spans)
problems = spans.cross_check(tracer.spans, metrics, 0)
result = json.loads(deephole.cli.render_json(report))["result"]
print(json.dumps({"code": code, "result": result, "problems": problems, **metrics}))
"""


def _traced(*argv) -> dict:
    """The per-layer metrics of perfbench/spans.py for one command, in a
    fresh interpreter, so that the tracer's wrappers stay there."""
    src = str(Path(deephole.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    perfbench = str(Path(__file__).parents[1] / "perfbench")
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_COMMAND, perfbench, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_the_benchmark_tracer_books_one_compact_weight_table():
    # perfbench/spans.py wraps Code.coset_leader_weights and reads the size
    # of the table it returns
    metrics = _traced("covering-radius", "--code", "prs", "--q", "13", "--k", "8")
    assert metrics["code"] == 0 and metrics["result"]["rho"] == 5
    assert metrics["codes.weights_calls"] >= 1
    assert metrics["codes.weights_builds"] == 1
    assert metrics["codes.weights_entries"] == (13**6 - 1) // 12


@pytest.mark.parametrize(
    "argv, swept",
    [
        (("family", "quadratic", "--q", "7", "--k", "5"), 21),
        (("family", "cubic", "--q", "7"), 112),
    ],
)
def test_the_benchmark_tracer_books_one_construction_per_irreducible(argv, swept):
    # perfbench/spans.py counts the calls of families.quadratic_family and
    # cubic_family and cross-checks them against the irreducibles swept
    metrics = _traced(*argv)
    assert metrics["code"] == 0 and metrics["problems"] == []
    assert metrics["families.constructions"] == swept
    assert metrics["families.cosets_emitted"] == swept * (8 if argv[1] == "quadratic" else 29)
