"""Structure guards: sewkit modules share only public names with each other
and draw no random number one ``uniform`` call at a time, every name the
benchmark's tracer patches is where it patches it, and README.md names every
public name."""
import ast
import re
from pathlib import Path

import pytest

from perfbench.tracer import Tracer, installed
from sewkit import certify, cli, knitting, paths, sewing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sewkit"


def _private_imports(path: Path) -> list[str]:
    """The underscore-prefixed names a module imports from other sewkit modules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("sewkit"):
            continue
        found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert _private_imports(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_draws_one_uniform_at_a_time(path):
    # certification samples come from one array draw, certify._draws
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "uniform"]
    assert calls == []


def test_only_the_pullback_passes_its_own_mu():
    # every built-in model's mu is derived from its increments and act
    passing = [path.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ApproxFlowModel"
               and any(k.arg == "mu" for k in node.keywords)]
    assert passing == ["paths.py"]


def _attributes():
    """Every attribute of the objects the tracer patches, by object and name."""
    owners = (sewing, knitting, certify, cli, paths.LipPath)
    return {(o.__name__, name): value for o in owners for name, value in vars(o).items()}


def test_tracer_finds_and_restores_every_name_it_patches():
    # a name dropped from a module fails here as an AttributeError on entry
    before = _attributes()
    with installed(Tracer()):
        during = _attributes()
    patched = [key for key, value in before.items() if during[key] is not value]
    assert patched
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_readme_names_every_public_name():
    # a name the package exports must be documented, so an API change updates README
    tree = ast.parse((SRC / "__init__.py").read_text())
    names = [a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names]
    readme = (ROOT / "README.md").read_text()
    assert names
    assert [n for n in names if not re.search(rf"`{re.escape(n)}\b", readme)] == []
