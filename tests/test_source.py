"""Source guards on src/deephole, read from the syntax tree alone.

Every function and class defined in the package is referenced somewhere in
src/ outside its own definition, or is on REFERENCES: a reference that a test
compares a production path against, an acceptance criterion, or a hook that a
caller outside src/ runs.  Every imported name is used by the module that
imports it, and an import inside a function body breaks an import cycle.
Names are matched by spelling, not by type: a method counts as referenced
when any attribute of that name is read, and a module function or class when
its name or an attribute of that name is.  Dunder methods run by syntax, not
by name, and are not checked.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "deephole"

# definitions that no src/ path calls, each with what it is kept for: the
# production path that a test compares it against, an acceptance criterion, or
# the caller outside src/ that runs it
REFERENCES = {
    "codes.Code.encode": "the rows of Code.codewords",
    "codes.Code.parity_check_matrix": "Code.syndromes; perfbench/spans.py wraps it",
    "codes.Code.is_mds": "an acceptance criterion",
    "gf.GF.is_square": "poly.is_irreducible at degree 2",
    "gf.GF.discrete_log": "GF.log_table, which n3_sweep's r3 column reads",
    "poly.RationalFunction": "Code.rational_words",
    "numbertheory.n3_bruteforce": "the brute-force column of n3_sweep",
    "numbertheory.n3_formula": "the formula column of n3_sweep",
    "numbertheory.degree_k1_nondeephole": "an acceptance criterion",
    "families.cubic_nondeep_by_splitting": "families.cubic_family",
    "families.dh_intersection": "families.quadratic_families",
    "cli._Parser.error": "argparse, on a usage error",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    """(qualified name, bare name, is a method, node) of every module-level
    function and class and every method, dunders left out."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{mod}.{node.name}", node.name, False, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{mod}.{node.name}.{item.name}", item.name, True, item


def _reads(tree) -> tuple[Counter, Counter]:
    """How often each name and each attribute name is read in a tree."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def unreferenced(modules) -> list[str]:
    """The definitions read nowhere outside their own body."""
    names, attrs = Counter(), Counter()
    for tree in modules.values():
        tree_names, tree_attrs = _reads(tree)
        names.update(tree_names)
        attrs.update(tree_attrs)
    out = []
    for qualname, name, method, node in _definitions(modules):
        own_names, own_attrs = _reads(node)
        outside = attrs[name] - own_attrs[name]
        if not method:
            outside += names[name] - own_names[name]
        if not outside:
            out.append(qualname)
    return out


def unused_imports(modules) -> list[str]:
    """Imports whose bound name is never read in the module that makes them;
    a name on the module's __all__ counts as read."""
    out = []
    for mod, tree in modules.items():
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
        names = _reads(tree)[0]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound != "annotations" and not names[bound] and bound not in exported:
                        out.append(f"{mod}: {alias.name}")
    return out


def _module_level_imports(tree) -> set[str]:
    """The modules of src/deephole that a module imports at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "deephole":
            names |= {f"deephole.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    return {name.removeprefix("deephole.") for name in names if name.startswith("deephole.")}


def deferred_imports_without_a_cycle(modules) -> list[str]:
    """Imports inside a function body whose module does not import the
    importer at module level.  A deferred import is kept only to break a
    cycle, since it moves its module's import cost into the first call."""
    out = []
    for mod, tree in modules.items():
        deferred = {}  # by node: a nested function is walked with its parent
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        deferred[id(node)] = node
        for node in sorted(deferred.values(), key=lambda node: node.lineno):
            if isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                names = [alias.name for alias in node.names]
            for name in names:
                target = modules.get(name.removeprefix("deephole."))
                if target is None or mod not in _module_level_imports(target):
                    out.append(f"{mod}: {name}")
    return out


def test_every_definition_is_referenced_or_a_named_reference():
    assert sorted(unreferenced(_modules())) == sorted(REFERENCES)


def test_every_import_is_used():
    assert unused_imports(_modules()) == []


@pytest.mark.parametrize(
    "extra, found",
    [
        ("def same_coset(code, w1, w2):\n    return same_coset(code, w2, w1)\n",
         "families.same_coset"),
        ("class Helper:\n    def unused(self):\n        return self.unused\n",
         "families.Helper"),
    ],
)
def test_an_unreferenced_definition_fails(extra, found):
    modules = _modules()
    modules["families"].body += ast.parse(extra).body
    assert found in unreferenced(modules)


def test_every_deferred_import_breaks_a_cycle():
    assert deferred_imports_without_a_cycle(_modules()) == []


@pytest.mark.parametrize(
    "extra, found",
    [
        ("def f():\n    from deephole.linalg import rank\n    return rank\n",
         "codes: deephole.linalg"),
        ("def f():\n    def g():\n        import json\n        return json\n    return g\n",
         "codes: json"),
    ],
)
def test_a_deferred_import_without_a_cycle_fails(extra, found):
    modules = _modules()
    modules["codes"].body += ast.parse(extra).body
    assert deferred_imports_without_a_cycle(modules) == [found]


def test_gf_imports_poly_late_only_while_poly_imports_gf():
    modules = _modules()
    body = modules["poly"].body
    modules["poly"].body = [
        node for node in body
        if not (isinstance(node, ast.ImportFrom) and node.module == "deephole.gf")
    ]
    assert len(modules["poly"].body) == len(body) - 1
    assert deferred_imports_without_a_cycle(modules) == ["gf: deephole.poly"] * 2


def test_an_unused_import_fails():
    modules = _modules()
    modules["codes"].body += ast.parse("from deephole.poly import RationalFunction").body
    assert unused_imports(modules) == ["codes: RationalFunction"]



def _resolves(module: str, path: str) -> bool:
    """Whether the attribute path is defined in the module of src/deephole,
    the last part in its owner's own namespace, where a wrapper replaces it."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    if Path(owner.__file__).resolve().parent != SRC:
        return False
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
    return attr in getattr(owner, "__dict__", {})


def test_every_benchmark_entry_point_resolves():
    # perfbench/spans.py wraps each one in the traced benchmark pass, which
    # fails when one is missing
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    entries = [entry[:2] for entry in spans.ENTRY_POINTS]
    assert len(entries) > 20
    assert [e for e in entries if not _resolves(*e)] == []


def test_a_renamed_entry_point_fails():
    assert _resolves("deephole.codes", "Code.coset_leader_weights")
    assert not _resolves("deephole.codes", "Code.leader_weights")
    assert not _resolves("deephole.codes", "Table.rows")
    assert not _resolves("deephole.nowhere", "run")
