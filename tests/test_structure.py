"""Structure guards: sewkit modules share only public names with each other,
import no name they do not use and draw no random number one ``uniform``
call at a time, every array of point differences is measured by
``metric.distances``, every certified
inequality fails through ``sewing.check_bound``, ``sew`` builds every level
in one loop body, ``models.py`` forks on no array type, the certify fits
measure each sample set through ``chain_distances``, the CLI runs every
sew through one step, ``sew`` reads a summary only through ``Readout.read``,
no map or readout is called as a function, every Euler model declares its
field bound, every name the benchmark's tracer patches is where it patches
it, and README.md names every public name."""
import ast
import inspect
import re
from pathlib import Path

import pytest

from perfbench.tracer import Tracer, installed
from sewkit import ProbedMap, Readout, certify, cli, knitting, models, paths, sewing

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


#: names imported and not used, each kept because perfbench/tracer.py patches it there
_KEPT_FOR_THE_TRACER = {"sewing.compose_chain", "knitting.compose_chain", "certify.compose_chain",
                        "certify.map_distance_value"}


def _unused_imports(path: Path) -> set[str]:
    """``module.name`` of every name the module imports and never loads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names}
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {f"{path.stem}.{name}" for name in imported - loaded}


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports the public names to export them, and README names each one
    unused = set().union(*(_unused_imports(path) for path in sorted(SRC.glob("*.py"))
                           if path.name != "__init__.py"))
    assert unused == _KEPT_FOR_THE_TRACER


def _definitions_with(match) -> list[str]:
    """``module.definition`` of each top-level definition of src/sewkit
    holding an AST node that ``match`` accepts."""
    return [f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for path in sorted(SRC.glob("*.py"))
            for top in ast.parse(path.read_text(), filename=str(path)).body
            if any(map(match, ast.walk(top)))]


def test_every_array_of_point_differences_is_measured_by_distances():
    # one routine keeps the bits of euclidean: math.hypot per row, never np.hypot
    assert _definitions_with(
        lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map"
        and ast.unparse(node.args[0]) == "math.hypot") == ["metric.distances"]
    assert _definitions_with(lambda node: isinstance(node, ast.Attribute)
                             and ast.unparse(node) in ("np.hypot", "numpy.hypot")) == []


def test_only_the_pullback_passes_its_own_mu():
    # every built-in model's mu is derived from its increments and act
    passing = [path.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ApproxFlowModel"
               and any(k.arg == "mu" for k in node.keywords)]
    assert passing == ["paths.py"]


def _callers(name: str) -> set[str]:
    """``module.definition`` of every top-level definition of src/sewkit
    whose body calls ``name``, nested functions included."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            found |= {f"{path.stem}.{getattr(top, 'name', '<module>')}"
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    return found


def test_every_certified_inequality_fails_through_check_bound():
    # one comparison and one message format, so a change to either is made once
    assert _callers("BoundViolation") == {"sewing.check_bound"}
    assert {c for c in _callers("within_bound") if not c.startswith("cli.")} == {
        "sewing.check_bound"}


def test_sew_builds_every_level_in_its_one_loop():
    # level 0 runs through the loop body: one level record, one chain and one
    # a-priori stop, all inside the loop, so a level-0 prologue cannot come back
    sew = next(node for node in ast.parse((SRC / "sewing.py").read_text()).body
               if getattr(node, "name", None) == "sew")
    loops = [node for node in sew.body if isinstance(node, ast.While)]
    assert len(loops) == 1
    for tree in (sew, loops[0]):
        calls = [getattr(node.func, "id", None) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)]
        stops = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Compare) and ast.unparse(node) == "bound < tol"]
        assert (calls.count("SewLevel"), calls.count("compose_along"), len(stops)) == (1, 1, 1)


def test_models_fork_on_no_array_type():
    # FlatConnection.angles converts every input to one float array, so a
    # per-input-type pass, such as one per chord for tuples, cannot come back
    forks = [node.lineno for node in ast.walk(ast.parse((SRC / "models.py").read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
             and any("ndarray" in ast.unparse(arg) for arg in node.args[1:])]
    assert forks == []


@pytest.mark.parametrize(
    "name",
    ["certify.fit_three_point", "certify.fit_strong_four_point", "sewing.four_point_defect"])
def test_certify_measures_each_sample_set_through_chain_distances(name):
    # one array pass per sample set: no chain, sup distance or mu per sample
    assert name in _callers("chain_distances")
    assert name not in _callers("compose_along") | _callers("map_distance_value") | _callers("mu")


def test_cli_runs_every_sew_through_one_step():
    # sew, holonomy and the class-separation holonomies all keep the levels of
    # a sew that stops short: one handler of NonConvergence, in the one step
    # that every sew and holonomy of the CLI is handed to
    tree = ast.parse((SRC / "cli.py").read_text())
    steps = [top.name for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.ExceptHandler) and node.type is not None
             and "NonConvergence" in ast.unparse(node.type)]
    assert len(steps) == 1
    handed = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == steps[0] for arg in node.args}
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
            and node.id in ("sew", "holonomy") and isinstance(node.ctx, ast.Load)]
    assert uses and all(id(node) in handed for node in uses)


def test_sew_reads_the_summary_only_through_read():
    # the value sew reports is its summary's slot of the measured probe values,
    # never a summary called on a map or forked on by its type
    sew = next(node for node in ast.parse((SRC / "sewing.py").read_text()).body
               if getattr(node, "name", None) == "sew")
    calls = [ast.unparse(node.func) for node in ast.walk(sew) if isinstance(node, ast.Call)]
    assert [c for c in calls if "summary" in c] == ["summary.read"]
    assert "isinstance" not in calls


def test_maps_and_readouts_are_not_called_as_functions():
    # one spelling each: ProbedMap.eval and Readout.read
    assert [c.__name__ for c in (ProbedMap, Readout) if "__call__" in vars(c)] == []


def test_every_euler_model_declares_its_field_bound():
    # no field reaches _euler_model, so no bound on |F| is probed off the grid
    assert "field" not in inspect.signature(models._euler_model).parameters
    bound = inspect.signature(models.make_euler).parameters["field_bound"]
    assert bound.default is inspect.Parameter.empty


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
