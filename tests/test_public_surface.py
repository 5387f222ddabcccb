"""The public surface is what the CLI, the demos and the benchmark call.

A module-level function or a method of a class in splitnoise is public
(no leading underscore) only if non-test code outside its module uses
it: another package module, a demo, or the benchmark under perfbench/.
A function counts as used where such a file names it (a call, or the
function passed on); a method only where such a file calls an
attribute of that name.  Anything else is test-only surface: delete it
or make it private.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitnoise"
USERS = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
         *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]


def _public_definitions(tree):
    """Names of the public module-level functions, and Class.method for public methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _uses(tree):
    """(names, called attributes) of one file: every Name and attribute it reads, every attribute it calls."""
    names, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return names, called


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_public_name_has_a_caller_outside_tests(module):
    source = PACKAGE / f"{module}.py"
    names, called = set(), set()
    for path in USERS:
        if path != source:
            file_names, file_called = _uses(ast.parse(path.read_text()))
            names |= file_names
            called |= file_called
    unused = [name for name in _public_definitions(ast.parse(source.read_text()))
              if ("." in name and name.split(".")[1] not in called)
              or ("." not in name and name not in names)]
    assert not unused, f"{module}: {unused} public, but only tests or {module} use them"
