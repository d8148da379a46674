"""Every module-level function and class of ``src/``, ``tests/`` and ``tools/`` is defined once.

A second ``def`` of a name silently replaces the first, so the first copy of a
test defined twice never runs.  ``ast`` finds such names without a linter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "tools") for path in (ROOT / folder).rglob("*.py"))


def redefined(path):
    """(name, first line, line of the redefinition) of each function or class
    that the module at ``path`` defines again at its top level."""
    first, twice = {}, []
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in first:
                twice.append((node.name, first[node.name], node.lineno))
            first.setdefault(node.name, node.lineno)
    return twice


def test_no_module_level_name_is_defined_twice():
    assert any(path.name == "dynamics.py" for path in SOURCES)
    assert any(path.name == "bench_kernel.py" for path in SOURCES)
    found = {str(path.relative_to(ROOT)): redefined(path) for path in SOURCES}
    assert {name: twice for name, twice in found.items() if twice} == {}


def test_a_second_definition_is_found(tmp_path):
    module = tmp_path / "twice.py"
    module.write_text("def a():\n    pass\n\n\nclass B:\n    pass\n\n\nasync def a():\n    pass\n")
    assert redefined(module) == [("a", 1, 9)]
