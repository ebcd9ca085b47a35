"""Each per-family decision that more than one module makes is made once, in
the family's row in kernels (kernels._ROWS): the interval map and its
inverse, the grid ends, the sqrt(x) grid rule, the parity split, how J moves
with s, the commuting operator L and whether the kernel has an order. The
modules that read the rows keep at most a few family branches of their own."""

import ast
from pathlib import Path

import gapspec

_READERS = ("operator", "verify", "asymptotics", "cli")
_MEMBERS = {"SINE", "AIRY", "BESSEL"}
# the closed forms' own dispatch (asymptotics' _LAWS) is the other table
_TABLES = {"_LAWS"}
_LIMIT = 3


def _is_member(node):
    """Family.X, or a bare SINE, AIRY or BESSEL."""
    if isinstance(node, ast.Attribute):
        return node.attr in _MEMBERS and isinstance(node.value, ast.Name) and (
            node.value.id == "Family")
    return isinstance(node, ast.Name) and node.id in _MEMBERS


def _names_member(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_member(e) for e in node.elts)
    return _is_member(node)


def _family_branches(path):
    """Lines of path that compare against a family (is, is not, ==, in a
    tuple of them) or build a dict keyed by families, outside _TABLES."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tables = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in _TABLES for t in node.targets):
            tables.add(id(node.value))
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                _names_member(x) for x in [node.left, *node.comparators]):
            lines.add(node.lineno)
        if isinstance(node, ast.Dict) and id(node) not in tables and any(
                k is not None and _is_member(k) for k in node.keys):
            lines.add(node.lineno)
    return sorted(lines)


def test_family_branches_outside_kernels():
    src = Path(gapspec.__file__).parent
    found = [f"{name}.py:{line}" for name in _READERS
             for line in _family_branches(src / f"{name}.py")]
    assert len(found) <= _LIMIT, found


def test_the_count_sees_each_form(tmp_path):
    # one line per form the count reads; the _LAWS table and a family
    # passed as an argument are not branches
    path = tmp_path / "sample.py"
    path.write_text(
        "a = fam is Family.SINE\n"
        "b = fam is not Family.AIRY\n"
        "c = spec is SINE\n"
        "d = fam in (None, Family.BESSEL)\n"
        "e = {Family.AIRY: 1.0, Family.SINE: 2.0}[fam]\n"
        "_LAWS = {Family.SINE: 1}\n"
        "f = g(Family.AIRY)\n",
        encoding="utf-8",
    )
    assert _family_branches(path) == [1, 2, 3, 4, 5]
