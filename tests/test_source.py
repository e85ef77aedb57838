"""Source guards on src/deephole, read from the syntax tree alone.

Every function and class defined in the package is referenced somewhere in
src/ outside its own definition, or is on REFERENCES: a reference that a test
compares a production path against, an acceptance criterion, or a hook that a
caller outside src/ runs.  Every imported name is used by the module that
imports it.  Names are matched by spelling, not by type: a method
counts as referenced when any attribute of that name is read, and a module
function or class when its name or an attribute of that name is.  Dunder
methods run by syntax, not by name, and are not checked.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "deephole"

# definitions that no src/ path calls, each with what it is kept for: the
# production path that a test compares it against, an acceptance criterion, or
# the caller outside src/ that runs it
REFERENCES = {
    "codes.Code.encode": "the rows of Code.codewords",
    "codes.Code.normalize_syndrome": "Code.projective_ids",
    "codes.Code.parity_check_matrix": "Code.syndromes; perfbench/spans.py wraps it",
    "codes.Code.is_mds": "an acceptance criterion",
    "gf.GF.is_square": "poly.is_irreducible at degree 2",
    "poly.RationalFunction": "Code.rational_words",
    "table.Table.rows": "Table.render_json",
    "numbertheory.QuadraticExtension.lift": "QuadraticExtension.cubic_residue_counts",
    "numbertheory.QuadraticExtension.residue": "the alpha column of n3_sweep",
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


def test_an_unused_import_fails():
    modules = _modules()
    modules["codes"].body += ast.parse("from deephole.poly import RationalFunction").body
    assert unused_imports(modules) == ["codes: RationalFunction"]
