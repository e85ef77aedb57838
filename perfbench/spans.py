"""Spans around the package's public entry points, recorded from outside it.

Tracer.install() replaces each entry point in ENTRY_POINTS with a wrapper
that appends [name, start, end, parent, attrs] to an in-memory list.  A
function is replaced at every module that binds it, under any name, and
install() fails if a binding is left unwrapped.  Per-scalar helpers such as
families._combine_syndromes are deliberately not wrapped: they run hundreds of
thousands of times and a span each would distort the run.

layer_metrics() turns the spans into the per-layer metrics of BENCHMARK.json.
Every `_s` metric is self time: a span's duration minus that of its direct
child spans.  Byte and entry counts are computed from array sizes, not
measured.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

SELF_TIME_METRICS = (
    "gf.field_build_s",
    "gf.np_tables_s",
    "poly.irreducibles_s",
    "codes.weights_s",
    "codes.codewords_s",
    "codes.exhaustive_s",
    "codes.span_lookup_s",
    "codes.syndrome_s",
    "families.quadratic_s",
    "families.cubic_s",
    "families.other_s",
    "classify.deep_syndromes_s",
    "classify.experiments_s",
    "numbertheory.n3_s",
    "numbertheory.subset_sum_s",
    "cli.run_s",
    "cli.render_s",
)
COUNT_METRICS = (
    "gf.fields_built",
    "poly.irreducibles_calls",
    "poly.irreducibles_distinct",
    "codes.weights_calls",
    "codes.weights_builds",
    "codes.weights_entries",
    "codes.codewords_builds",
    "codes.codewords_bytes",
    "codes.exhaustive_calls",
    "codes.scan_bytes",
    "codes.span_lookup_calls",
    "codes.syndrome_calls",
    "codes.parity_check_calls",
    "families.constructions",
    "families.other_calls",
    "families.cosets_emitted",
    "classify.deep_cosets",
    "numbertheory.n3_rows",
    "cli.report_bytes",
)


def _was_empty(slot):
    # whether the Code's cached table is still unbuilt, i.e. this call builds it
    return lambda code, *a, **kw: getattr(code, slot, None) is None


def _built(size_attr):
    def post(out, building, *a, **kw):
        return {"build": building, "size": getattr(out, size_attr) if building else 0}

    return post


def _method(code, word, method="auto", *a, **kw):
    return {"method": method, "scan": code.field.q**code.k * code.n}


# (module, attribute path, span name, self-time metric, call-count metric,
#  hook run before the call -> value, hook run after -> span attributes)
ENTRY_POINTS = (
    ("deephole.gf", "GF.__init__", "gf.GF", "gf.field_build_s", "gf.fields_built", None, None),
    ("deephole.gf", "make_field", "gf.make_field", "gf.field_build_s", None, None, None),
    ("deephole.gf", "field_of_order", "gf.field_of_order", "gf.field_build_s", None, None, None),
    ("deephole.gf", "GF.add_table", "gf.add_table", "gf.np_tables_s", None, None, None),
    ("deephole.gf", "GF.mul_table", "gf.mul_table", "gf.np_tables_s", None, None, None),
    ("deephole.poly", "monic_irreducibles", "poly.monic_irreducibles",
     "poly.irreducibles_s", "poly.irreducibles_calls", None,
     lambda out, _, field, d: {"q": field.q, "d": d, "n": len(out)}),
    ("deephole.codes", "Code.coset_leader_weights", "codes.coset_leader_weights",
     "codes.weights_s", "codes.weights_calls", _was_empty("_weights"), _built("size")),
    ("deephole.codes", "Code.codewords", "codes.codewords",
     "codes.codewords_s", None, _was_empty("_codewords"), _built("nbytes")),
    ("deephole.codes", "Code.error_distance", "codes.error_distance",
     None, None, _method, lambda out, before, *a, **kw: before),
    ("deephole.codes", "Code.syndrome", "codes.syndrome",
     "codes.syndrome_s", "codes.syndrome_calls", None, None),
    ("deephole.codes", "Code.parity_check_matrix", "codes.parity_check_matrix",
     "codes.syndrome_s", "codes.parity_check_calls", None, None),
    *(
        ("deephole.families", f"{kind}_family", f"families.{kind}_family",
         f"families.{kind}_s", "families.constructions", None,
         lambda out, *a, **kw: {"cosets": len(out.cosets)})
        for kind in ("quadratic", "cubic")
    ),
    *(
        ("deephole.families", fn, f"families.{fn}", "families.other_s",
         "families.other_calls", None, lambda out, *a, **kw: {"cosets": len(out.cosets)})
        for fn in ("degree_k_family", "inverse_monomial_family", "zero_sum_free_family")
    ),
    ("deephole.classify", "deep_syndromes", "classify.deep_syndromes",
     "classify.deep_syndromes_s", None, None, lambda out, *a, **kw: {"n": len(out)}),
    *(
        ("deephole.classify", fn, f"classify.{fn}", "classify.experiments_s",
         None, None, None)
        for fn in ("count_deep_cosets", "build_hypergraph", "hypergraph_stats",
                   "completeness_check", "cubic_coverage_experiment")
    ),
    ("deephole.numbertheory", "n3_sweep", "numbertheory.n3_sweep",
     "numbertheory.n3_s", None, None, lambda out, *a, **kw: {"rows": len(out)}),
    ("deephole.numbertheory", "subset_sum_row", "numbertheory.subset_sum_row",
     "numbertheory.subset_sum_s", None, None, None),
    ("deephole.cli", "run_command", "cli.run_command", "cli.run_s", None, None, None),
    ("deephole.cli", "render_json", "cli.render_json", "cli.render_s", None, None,
     lambda out, *a, **kw: {"bytes": len(out)}),
)
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs]
        self._stack = []

    def _wrap(self, name, fn, pre, post):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            before = pre(*args, **kwargs) if pre else None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post:
                rec[4] = post(out, before, *args, **kwargs)
            return out

        return wrapper

    @contextlib.contextmanager
    def op(self, label):
        """Root span of one benchmark operation; its index identifies the
        spans the operation caused."""
        rec = [OP_SPAN, time.perf_counter(), 0.0, -1, {"label": label}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Wrap every entry point at every binding site in the package."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "deephole"]
        for mod_name, path, name, _, _, pre, post in ENTRY_POINTS:
            owner = sys.modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, property):
                setattr(owner, attr, property(self._wrap(name, raw.fget, pre, post)))
                continue
            wrapped = self._wrap(name, raw, pre, post)
            setattr(owner, attr, wrapped)
            if cls_path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
            left = [m.__name__ for m in modules if any(v is raw for v in vars(m).values())]
            if left:
                raise RuntimeError(f"{path} still bound unwrapped in {left}")

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer self times and counts, summed over all spans."""
    by_name = {e[2]: e for e in ENTRY_POINTS}
    child_s = [0.0] * len(spans)
    child_names = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
            child_names[parent].append(name)
    m = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    m.update(dict.fromkeys(COUNT_METRICS, 0))
    irreducible_kinds = set()
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if name == OP_SPAN:
            continue
        attrs = attrs or {}  # a call that raised recorded no attributes
        self_s = end - start - child_s[i]
        _, _, _, time_key, count_key, _, _ = by_name[name]
        if name == "codes.error_distance":
            method = attrs.get("method", "auto")
            if method == "auto":
                method = (
                    "exhaustive" if "codes.codewords" in child_names[i] else "syndrome_span"
                )
            if method == "exhaustive":
                time_key, count_key = "codes.exhaustive_s", "codes.exhaustive_calls"
                m["codes.scan_bytes"] += attrs.get("scan", 0)
            else:
                time_key, count_key = "codes.span_lookup_s", "codes.span_lookup_calls"
        m[time_key] += self_s
        if count_key:
            m[count_key] += 1
        if not attrs:
            continue
        if name == "poly.monic_irreducibles":
            irreducible_kinds.add((attrs["q"], attrs["d"]))
        elif name == "codes.coset_leader_weights":
            m["codes.weights_builds"] += attrs["build"]
            m["codes.weights_entries"] += attrs["size"]
        elif name == "codes.codewords":
            m["codes.codewords_builds"] += attrs["build"]
            m["codes.codewords_bytes"] += attrs["size"]
        elif name.startswith("families."):
            m["families.cosets_emitted"] += attrs["cosets"]
        elif name == "classify.deep_syndromes":
            m["classify.deep_cosets"] += attrs["n"]
        elif name == "numbertheory.n3_sweep":
            m["numbertheory.n3_rows"] += attrs["rows"]
        elif name == "cli.render_json":
            m["cli.report_bytes"] += attrs["bytes"]
    m["poly.irreducibles_distinct"] = len(irreducible_kinds)
    return m


def cross_check(spans, metrics, words: int) -> list[str]:
    """Traced counts that must equal values known in advance."""
    problems = []
    irreducibles = [
        (i, attrs) for i, (name, _, _, _, attrs) in enumerate(spans)
        if name == "poly.monic_irreducibles" and attrs
    ]
    for _, attrs in irreducibles:
        q, d, n = attrs["q"], attrs["d"], attrs["n"]
        known = {2: (q * q - q) // 2, 3: (q**3 - q) // 3}.get(d)
        if known is not None and n != known:
            problems.append(f"monic_irreducibles(GF({q}), {d}) returned {n}, not {known}")
    if metrics["codes.exhaustive_calls"] != words:
        problems.append(
            f"codes.exhaustive_calls {metrics['codes.exhaustive_calls']} != {words} words"
        )
    swept = sum(
        attrs["n"] for i, attrs in irreducibles if not _under(spans, i, "numbertheory.n3_sweep")
    )
    if metrics["families.constructions"] != swept:
        problems.append(
            f"families.constructions {metrics['families.constructions']} != "
            f"{swept} irreducibles swept"
        )
    return problems


def _under(spans, i, ancestor) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False
