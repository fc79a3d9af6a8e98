"""Every public top-level name in the package, and every field of its dataclasses,
is used by the package or the benchmark."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hamlearn").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# Public names kept for the tests alone, each with its reason.
TEST_ONLY = {
    "posterior_covariance": "moment reference for A10 and the resampler tests",
}


def public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_public_name_is_used_by_tests_alone():
    used = {name for path in USERS for name in references(ast.parse(path.read_text()))}
    unused = [
        f"{path.stem}.{name}"
        for path in PACKAGE
        for name in public_definitions(ast.parse(path.read_text()))
        if not name.startswith("_") and name not in used and name not in TEST_ONLY
    ]
    assert not unused, f"public names nothing in the package or perfbench uses: {unused}"
    assert not used & set(TEST_ONLY), "a test-only name is now used; drop it from TEST_ONLY"


def dataclass_fields(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def reads(tree):
    """Attribute loads, keyword names and string constants: the ways a field is read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_dataclass_field_is_unread():
    read = {name for path in USERS for name in reads(ast.parse(path.read_text()))}
    unread = [
        f"{path.stem}.{cls}.{field}"
        for path in PACKAGE
        for cls, field in dataclass_fields(ast.parse(path.read_text()))
        if field not in read
    ]
    assert not unread, f"dataclass fields nothing in the package or perfbench reads: {unread}"


def test_scipy_integrate_is_imported_only_for_the_benchmark_hook():
    # No run integrates numerically; `risk.__getattr__` resolves the
    # benchmark's traced `risk.quad` target.
    found = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        # ast.walk goes outside in, so each node ends up mapped to its innermost def
        scope = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for node in ast.walk(f)}
        found += [f"{path.stem}.{scope.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and re.search(r"\bscipy\b.*\bintegrate\b", ast.unparse(node))]
    assert found == ["risk.__getattr__"]


def test_cli_opens_no_file_for_writing():
    # Result files leave only through `hamlearn.output`.
    tree = ast.parse((ROOT / "src" / "hamlearn" / "cli.py").read_text())
    modes = [
        ast.unparse(mode)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("open", "io.open")
        for mode in node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    ]
    assert modes and all(mode in ("'r'", "'rb'") for mode in modes), modes
