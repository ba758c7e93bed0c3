"""The package's import layers, read statically from the sources.

The data modules and the possible-worlds oracle import no solver code, so the
oracle stays an independent check of the solvers; the engine does not import
the oracle; and no module reaches into ``rep``'s private names.  Imports
inside functions count too.  The count rule (an integer, and a bool is not
one) is written out only in ``preferences``.
"""

import ast
from pathlib import Path

import mewvote
import mewvote.oracle
import mewvote.profiles
import mewvote.rep

PACKAGE = Path(mewvote.__file__).parent
SOLVER_MODULES = {"rep", "engine", "mpw", "bench"}
DATA_AND_ORACLE = ("preferences", "models", "rules", "profiles", "profile_io", "generators",
                   "oracle")


def imports(source: str) -> set[tuple[str, str]]:
    """(package module, imported name) for every import of a package module
    anywhere in ``source``; the name is "" for a whole-module import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {(a.name.split(".")[1], "") for a in node.names
                      if a.name.startswith("mewvote.")}
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:  # absolute: only this package's modules count
                if name != "mewvote" and not name.startswith("mewvote."):
                    continue
                name = name.partition(".")[2]
            if name:
                found |= {(name, a.name) for a in node.names}
            else:  # from . import rep / from mewvote import rep
                found |= {(a.name, "") for a in node.names}
    return found


def module_imports(module: str) -> set[tuple[str, str]]:
    return imports((PACKAGE / f"{module}.py").read_text())


def test_the_walk_sees_every_import_form_at_any_depth():
    assert imports("def f():\n    from .oracle import oracle_mpw\n") == {("oracle", "oracle_mpw")}
    assert imports("from . import rep as r\nimport mewvote.mpw") == {("rep", ""), ("mpw", "")}
    assert imports("from mewvote.engine import mew\nfrom mewvote import bench") == {
        ("engine", "mew"), ("bench", "")}
    assert imports("import numpy\nfrom numpy import rep") == set()
    assert ("rep", "rep_dispatch") in module_imports("engine")
    assert {path.stem for path in PACKAGE.glob("*.py")} >= set(DATA_AND_ORACLE) | SOLVER_MODULES


def test_data_modules_and_the_oracle_import_no_solver_module():
    for module in DATA_AND_ORACLE:
        solvers = {name for name, _ in module_imports(module)} & SOLVER_MODULES
        assert not solvers, f"{module} imports {sorted(solvers)}"


def test_the_engine_does_not_import_the_oracle():
    assert "oracle" not in {name for name, _ in module_imports("engine")}


def test_no_module_imports_a_private_name_from_rep():
    for path in PACKAGE.glob("*.py"):
        private = {name for module, name in module_imports(path.stem)
                   if module == "rep" and name.startswith("_")}
        assert not private, f"{path.stem} imports {sorted(private)} from rep"


def test_moved_names_still_resolve():
    assert mewvote.Voter is mewvote.rep.Voter is mewvote.profiles.Voter
    assert mewvote.expected_regret is mewvote.oracle.oracle_expected_regret


def count_checks(source: str) -> int:
    """The hand-written count checks in ``source``: ``isinstance(x, bool) or not
    isinstance(x, int)``, with ``Integral`` for ``int`` too."""
    def isinstance_of(node, names):
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2 and getattr(node.args[1], "id", None) in names)

    found = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            found += any(isinstance_of(v, {"bool"}) for v in node.values) and any(
                isinstance(v, ast.UnaryOp) and isinstance(v.op, ast.Not)
                and isinstance_of(v.operand, {"int", "Integral"}) for v in node.values)
    return found


def test_the_count_rule_has_one_home():
    assert count_checks("if isinstance(w, bool) or not isinstance(w, int) or w < 1:\n    pass") == 1
    assert count_checks("def f(n):\n    return isinstance(n, bool) or not isinstance(n, Integral)") == 1
    # a JSON number and a field's declared type are other rules
    assert count_checks("isinstance(v, bool) or not isinstance(v, (int, float))") == 0
    assert count_checks("isinstance(v, bool) != (bool in a) or not isinstance(v, a)") == 0
    for path in PACKAGE.glob("*.py"):
        want = 1 if path.stem == "preferences" else 0  # check_count
        assert count_checks(path.read_text()) == want, path.stem
