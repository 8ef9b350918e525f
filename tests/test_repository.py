"""Properties of the source tree and its documentation: no module of the
package imports a private name of another, reads a private attribute of
an object other than self or cls, or imports dataclasses, every public
class has a docstring, and every python example in README.md runs."""

import ast
import re
from pathlib import Path

import pytest

import mdpdiag

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mdpdiag").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_import_from_a_sibling(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [f"line {node.lineno}: {alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("mdpdiag"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_attribute_read_on_another_object(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [f"line {node.lineno}: {ast.unparse(node)}"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Load)
               and node.attr.startswith("_") and not node.attr.startswith("__")
               and not (isinstance(node.value, ast.Name)
                        and node.value.id in ("self", "cls"))]
    assert private == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_imports_dataclasses(path):
    # its import pulls in inspect, and both cost every query's start-up;
    # mdpdiag.records builds the value classes
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imports = [f"line {node.lineno}" for node in ast.walk(tree)
               if (isinstance(node, ast.Import)
                   and any(a.name.split(".")[0] == "dataclasses"
                           for a in node.names))
               or (isinstance(node, ast.ImportFrom) and node.level == 0
                   and node.module.split(".")[0] == "dataclasses")]
    assert imports == []


def test_every_public_class_has_a_docstring():
    classes = [name for name in mdpdiag.__all__
               if isinstance(getattr(mdpdiag, name), type)]
    assert [name for name in classes
            if not (getattr(mdpdiag, name).__doc__ or "").strip()] == []


README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("code", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_example_runs(code, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out
