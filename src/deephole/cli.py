"""Command-line harness exposing the experiments with reproducible reports.

Every command emits a single self-describing report (JSON by default, CSV as
a tabular projection) embedding the full configuration, the field modulus and
the element-order convention; ``run`` builds every report from the result and
assertions of one runner.  Identical configurations produce byte-identical
output.  Exit codes: 0 success, 1 usage error, bound violation or unwritable
output, 2 when a machine-checked structural expectation fails.
"""

from __future__ import annotations

import argparse
import contextvars
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, asdict

import numpy as np

from deephole import classify, codes, families, numbertheory
from deephole.codes import prs, rs
from deephole.errors import BoundExceededError, TheoremAssertionError
from deephole.gf import GF, field_of_order, make_field
from deephole.poly import monic_irreducibles
from deephole.table import Table

DEFAULT_MAX_Q = 13


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    command: str
    q: int | None = None
    p: int | None = None
    m: int | None = None
    k: int | None = None
    degree: int | None = None
    set: tuple[int, ...] | None = None
    r: int | None = None
    tag: str | None = None
    code: str | None = None
    format: str = "json"
    out: str | None = None
    threads: int = 1  # echoed in reports; every command runs on one thread
    unsafe_bounds: bool = False

    def field(self) -> GF:
        if self.q is not None:
            return field_of_order(self.q)
        return make_field(self.p, 1 if self.m is None else self.m)

    def check_size_guard(self):
        if self.unsafe_bounds:
            return
        text = os.environ.get("DEEPHOLE_MAX_Q", str(DEFAULT_MAX_Q))
        try:
            guard = int(text)
        except ValueError:
            guard = 0
        if guard < 1:
            raise UsageError(f"DEEPHOLE_MAX_Q must be a positive integer, got {text!r}")
        # checked before the field is built, and p^m taken only for small p, m
        p, m = (self.q, 1) if self.q is not None else (self.p, self.m)
        m = 1 if m is None else m
        if m >= 1 and (p > guard or m > guard.bit_length() or p**m > guard):
            q = p if m == 1 else f"{p}^{m}"
            raise BoundExceededError(
                f"q = {q} exceeds the size guard {guard} "
                "(set DEEPHOLE_MAX_Q or pass --unsafe-bounds)"
            )

    def describe(self) -> dict:
        d = asdict(self)
        d["set"] = list(self.set) if self.set is not None else None
        return d


# -- runners -------------------------------------------------------------------
# Each runner takes the config and the field that run() built, and returns the
# report's result and its assertions.


def run_covering_radius(cfg: ExperimentConfig, field: GF) -> tuple[dict, dict]:
    if cfg.k is None:
        raise UsageError("covering-radius requires --k")
    kind = cfg.code or "rs"
    if kind == "rs":
        code = rs(field, cfg.k, D=cfg.set)
    elif kind == "prs":
        if cfg.set is not None:
            raise UsageError("--set only applies to affine codes")
        code = prs(field, cfg.k)
    else:
        raise UsageError(f"unknown code kind {kind!r}")
    rho = code.covering_radius()
    result = {"kind": kind, "n": code.n, "k": code.k, "rho": rho}
    if kind == "rs":
        return result, {"rho_equals_n_minus_k": rho == code.n - code.k}
    conj = classify.prs_covering_radius(field.q, cfg.k)
    result["conjecture_value"] = conj
    result["matches_conjecture"] = rho == conj
    return result, {}


def run_enum_deep_cosets(cfg: ExperimentConfig, field: GF) -> tuple[dict, dict]:
    if cfg.k is None:
        raise UsageError("enum-deep-cosets requires --k")
    code = prs(field, cfg.k)
    total = classify.count_deep_cosets(code)
    q, r = field.q, code.redundancy
    in_range = classify.in_theorem_range(q, cfg.k)
    formula = classify.deep_count_formula(q, r) if r in (3, 4) else None
    result = {
        "total": total,
        "redundancy": r,
        "formula": formula,
        "in_theorem_range": in_range,
    }
    return result, {"count_matches_formula": total == formula} if in_range else {}


def run_family(cfg: ExperimentConfig, field: GF) -> tuple[dict, dict]:
    tag = cfg.tag
    fams = []
    if tag == "degree_k":
        if cfg.k is None:
            raise UsageError("family degree_k requires --k")
        code = prs(field, cfg.k)
        fams = [families.degree_k_family(code)]
    elif tag == "quadratic":
        if cfg.k is None:
            raise UsageError("family quadratic requires --k")
        if cfg.degree not in (None, 2):
            raise UsageError("quadratic families use --degree 2")
        code = prs(field, cfg.k)
        fams = families.quadratic_families(code, monic_irreducibles(field, 2))
    elif tag == "cubic":
        if cfg.degree not in (None, 3):
            raise UsageError("cubic families use --degree 3")
        k = field.q - 3 if cfg.k is None else cfg.k
        code = prs(field, k)
        fams = families.cubic_families(code, monic_irreducibles(field, 3))
    elif tag == "inverse_monomial":
        if cfg.set is None or cfg.k is None:
            raise UsageError("family inverse_monomial requires --set and --k")
        code = rs(field, cfg.k, D=cfg.set)
        fams = [
            families.inverse_monomial_family(code, delta)
            for delta in range(field.q)
            if delta not in cfg.set
        ]
    elif tag == "zero_sum_free":
        if cfg.set is None or cfg.r is None:
            raise UsageError("family zero_sum_free requires --set and --r")
        fams = [families.zero_sum_free_family(field, cfg.set, cfg.r)]
        code = fams[0].code
    else:
        raise UsageError(f"unknown family tag {tag!r}; choose from {families.TAGS}")
    # with no families (every delta in D) no mask is built, over a code whose
    # q^r may exceed the table limits
    q = field.q
    total = int(code.class_mask(f.cosets for f in fams).sum()) if fams else 0
    if fams and fams[0].scale_closed:  # q - 1 cosets per class
        total *= q - 1
    if tag == "quadratic" and code.redundancy == 3 and q % 2:
        # completeness: the families of k = q-2 cover every deep coset
        expected = classify.deep_count_formula(q, 3)
        if total != expected:
            raise TheoremAssertionError(
                f"the quadratic families cover {total} cosets, not the "
                f"(q-1)q^2 = {expected} deep cosets"
            )
    result = {
        "families": families.family_table(fams),
        "num_families": len(fams),
        "total_distinct_cosets": total,
    }
    return result, {}


def run_completeness(cfg: ExperimentConfig, field: GF) -> tuple[dict, dict]:
    res = classify.completeness_check(field)
    return res, {"union_equals_deep_set": res["equal"]}


def run_hypergraph(cfg: ExperimentConfig, field: GF) -> tuple[dict, dict]:
    h = classify.build_hypergraph(field)
    stats = classify.hypergraph_stats(h)
    q, r = field.q, h.code.redundancy
    polys = sorted(h.edges)
    # an edge names its classes by their representatives packed base q,
    # lowest coordinate least significant
    reps = codes.class_representatives(q, r, np.stack([h.edges[p] for p in polys]))
    edges = np.sort(reps @ q ** np.arange(r), axis=1)
    result = {
        "num_vertices": stats["num_vertices"],
        "num_edges": stats["num_edges"],
        "degree_histogram": stats["degree_histogram"],
        "vertices": sorted(codes.class_representatives(q, r, h.vertices).tolist()),
        "edges": Table({"poly": np.array(polys), "vertices": edges}),
    }
    return result, stats["checks"]


def run_cubic_coverage(cfg: ExperimentConfig, field: GF) -> tuple[dict, dict]:
    return classify.cubic_coverage_experiment(field), {}


def run_ssp(cfg: ExperimentConfig, field: GF) -> tuple[dict, dict]:
    if cfg.k is None:
        raise UsageError("ssp requires --k")
    D = cfg.set if cfg.set is not None else field.element_reprs()
    counts = numbertheory.subset_sum_row(field, D, cfg.k)
    q = field.q
    for nonzero, whole in ((False, range(q)), (True, range(1, q))):
        if set(D) == set(whole):
            closed = numbertheory.subset_sum_closed_row(field, cfg.k, nonzero)
            if counts != closed:
                raise TheoremAssertionError(
                    f"subset-sum counts {counts} differ from the Li-Wan closed "
                    f"form {closed} for k = {cfg.k}"
                )
    all_positive = all(c > 0 for c in counts)
    result = {
        "D": sorted(D),
        "k": cfg.k,
        "counts_by_encoding": counts,
        "all_positive": all_positive,
    }
    full = set(D) == set(range(q))
    in_range = (1 <= cfg.k <= q - 1) if q % 2 else (3 <= cfg.k <= q - 3)
    if full and in_range:
        return result, {"full_field_counts_positive": all_positive}
    return result, {}


def run_n3(cfg: ExperimentConfig, field: GF) -> tuple[dict, dict]:
    table = numbertheory.n3_sweep(field)
    brute = table.columns["n3_bruteforce"]
    all_match = bool((brute == table.columns["n3_formula"]).all())
    result = {
        "rows": table,
        "num_rows": len(table),
        "all_match": all_match,
        "zero_classes": int((brute == 0).sum()),
    }
    return result, {"formula_matches_bruteforce": all_match}


def run_zero_sum_free(cfg: ExperimentConfig, field: GF) -> tuple[dict, dict]:
    if cfg.r is None:
        raise UsageError("zero-sum-free requires --r")
    if cfg.r < 1:
        raise UsageError(f"zero-sum-free requires --r >= 1, got {cfg.r}")
    default_candidate = cfg.set is None
    if default_candidate:
        if field.m != 1:
            raise UsageError("default candidate sets exist for prime fields only")
        if field.p // cfg.r + cfg.r > field.p:
            raise UsageError(
                f"the default candidate for r = {cfg.r} has more than p = {field.p} "
                "elements; pass --set"
            )
        D = tuple(numbertheory.initial_segment(field.p, cfg.r))
    else:
        D = cfg.set
    ok = numbertheory.is_zero_sum_free(field, D, cfg.r)
    violations = numbertheory.zero_sum_violations(field, D, cfg.r)
    if ok != (not violations):
        raise TheoremAssertionError(
            f"the subset-sum count says zero_sum_free = {ok}, but enumeration "
            f"found {len(violations)} zero-sum {cfg.r}-subsets"
        )
    result = {
        "set": sorted(D),
        "r": cfg.r,
        "default_candidate": default_candidate,
        "zero_sum_free": ok,
        "violations": [list(v) for v in violations],
    }
    return result, {}


_RUNNERS = {
    "covering-radius": run_covering_radius,
    "enum-deep-cosets": run_enum_deep_cosets,
    "family": run_family,
    "completeness": run_completeness,
    "hypergraph": run_hypergraph,
    "cubic-coverage": run_cubic_coverage,
    "ssp": run_ssp,
    "n3": run_n3,
    "zero-sum-free": run_zero_sum_free,
}
COMMANDS = tuple(_RUNNERS)


def run(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Execute one experiment; returns (report, exit code), 2 iff an
    assertion is false.  The field is built, and the report assembled from
    the runner's result and assertions, here only."""
    cfg.check_size_guard()
    field = cfg.field()
    q = field.q
    if cfg.set is not None and any(not 0 <= x < q for x in cfg.set):
        raise UsageError(f"--set encodings must lie in 0..{q - 1}, got {list(cfg.set)}")
    # the lift is set in a copy of the context, so it ends with this run
    ctx = contextvars.copy_context()
    if cfg.unsafe_bounds:
        ctx.run(codes.LIMITS.set, codes.Limits(sys.maxsize, sys.maxsize))
    result, assertions = ctx.run(_RUNNERS[cfg.command], cfg, field)
    report = {
        "command": cfg.command,
        "config": cfg.describe(),
        "field": field.describe(),
        "result": result,
        "assertions": assertions,
    }
    return report, 0 if all(assertions.values()) else 2


# -- serialization ----------------------------------------------------------------


_TABLE_PLACEHOLDER = "\0table"
# only a report string holding a NUL renders like this; render_json checks
# that the placeholder count equals the table count
_TABLE_MARK = json.dumps(_TABLE_PLACEHOLDER)


def render_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)`` plus a newline, with
    each ``Table`` written as the list of its rows, ``Table.rows()``: the
    ``n3`` rows, the ``family`` families, the ``completeness`` and
    ``cubic-coverage`` per-family counts and the ``hypergraph`` edges.
    ``json.dumps`` writes a placeholder for each table; the text of the
    table's one ``%``-template then replaces it, at the nesting level that
    the placeholder's line indent gives."""
    indent, tables = 2, []

    def placeholder(obj):
        if not isinstance(obj, Table):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        tables.append(obj)
        return _TABLE_PLACEHOLDER

    text = json.dumps(report, sort_keys=True, indent=indent, default=placeholder)
    if tables:
        parts = text.split(_TABLE_MARK)
        if len(parts) != len(tables) + 1:
            raise ValueError("a report string renders as the table placeholder")
        out = [parts[0]]
        for table, part in zip(tables, parts[1:]):
            line = out[-1][out[-1].rfind("\n") + 1 :]
            level = (len(line) - len(line.lstrip(" "))) // indent
            out += [table.render_json(indent, level), part]
        out.append("\n")
        return "".join(out)  # one copy of the text, newline included
    return text + "\n"


def _csv_rows(report: dict) -> tuple[list[str], list[list]]:
    cmd = report["command"]
    res = report["result"]
    q = report["field"]["q"]
    if cmd == "n3":
        header = ["q", "qpoly", "alpha", "n3_bruteforce", "n3_formula", "r3"]
        cols = [res["rows"].columns[name].tolist() for name in header[1:]]
        rows = [
            [q, json.dumps(qpoly), json.dumps(alpha), bf, formula, r3]
            for qpoly, alpha, bf, formula, r3 in zip(*cols)
        ]
        return header, rows
    if cmd == "family":
        header = ["tag", "params", "coset_count"]
        rows = [
            [f["tag"], json.dumps(f["params"], sort_keys=True), f["coset_count"]]
            for f in res["families"].rows()
        ]
        return header, rows
    if cmd == "ssp":
        header = ["g", "count"]
        return header, list(enumerate(res["counts_by_encoding"]))
    if cmd == "hypergraph":
        header = ["degree", "vertex_count"]
        return header, sorted(res["degree_histogram"].items())
    if cmd in ("cubic-coverage", "completeness"):
        tag = "cubic" if cmd == "cubic-coverage" else "quadratic"
        total = res["total"] if cmd == "cubic-coverage" else res["total_deep_cosets"]
        frac = (
            res["fraction"]
            if cmd == "cubic-coverage"
            else res["union_size"] / total
        )
        header = ["q", "k", "total_cosets", "family_tag", "family_cosets",
                  "covered_fraction"]
        rows = [
            [res["q"], res["k"], total, tag, cosets, frac]
            for cosets in res["per_family"].columns["cosets"].tolist()
        ]
        return header, rows
    header = ["key", "value"]
    rows = [
        [k, v if isinstance(v, (int, float, str, bool)) else json.dumps(v)]
        for k, v in sorted(res.items())
    ]
    return header, rows


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header, rows = _csv_rows(report)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise UsageError(f"--set expects comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deephole", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "family":
            p.add_argument("tag", choices=families.TAGS)
        p.add_argument("--q", type=int, help="field size as a prime power")
        p.add_argument("--p", type=int, help="field characteristic")
        p.add_argument("--m", type=int, help="extension degree (with --p)")
        p.add_argument("--k", type=int, help="code dimension")
        p.add_argument("--degree", type=int, choices=(2, 3))
        p.add_argument("--set", type=str, help="comma-separated element encodings")
        p.add_argument("--r", type=int, help="subset size / zero-sum-free order")
        if name == "covering-radius":
            p.add_argument("--code", choices=("rs", "prs"), default="rs")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=1, help="ignored (one thread)")
        p.add_argument("--unsafe-bounds", action="store_true")
    return parser


def config_from_args(args) -> ExperimentConfig:
    if (args.q is None) == (args.p is None):
        raise UsageError("give exactly one of --q or --p (with optional --m)")
    if args.q is not None and args.m is not None:
        raise UsageError("--m only combines with --p")
    if args.set is not None:
        args.set = _parse_set(args.set)
    return ExperimentConfig(**vars(args))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command line, built on the first call."""
    return build_parser()


def run_command(argv) -> tuple[dict | None, int]:
    """Parse argv, run, and return (report, exit code); no output is produced
    for rejected configurations."""
    try:
        args = _parser().parse_args(argv)
        cfg = config_from_args(args)
        report, code = run(cfg)
        return report, code
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return None, 1
    except TheoremAssertionError as e:
        print(f"structural check failed: {e}", file=sys.stderr)
        return None, 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return None, 1
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return None, 1


def main(argv=None) -> int:
    report, code = run_command(sys.argv[1:] if argv is None else argv)
    if report is not None:
        fmt = report["config"]["format"]
        text = render_csv(report) if fmt == "csv" else render_json(report)
        out = report["config"]["out"]
        try:
            if out:
                with open(out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
                sys.stdout.flush()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
