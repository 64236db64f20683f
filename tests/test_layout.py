"""Module layering of the library, read from the source with ``ast``.

The runtime core must not reach the exponential desk-scale oracles or
the independent eps route, the oracles build on neither engine, and no
module may hide an import inside a function (such imports are how import
cycles get papered over).  Every phase the benchmark tracer times must
still exist under its name, the engine keeps supports in one
representation, int id masks, both engines run their pair loops through
one adjacency kernel, the direct engine closes every face through one
helper, every closure walks its columns through one function, neither
engine keeps a record object per element, roles change and elements go
by id mask, never one call per element in a loop, and the eps engine
shares the direct engine's element store but not its step.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nncpoly.conversion import ConvCtx

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nncpoly"
RUNTIME = ("homvec", "systems", "satlat", "conversion", "polyhedron", "formats", "counting", "errors")
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.Module) -> set[str]:
    """Library modules a module imports, by their short name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("nncpoly.")}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("nncpoly"):
                continue
            module = (node.module or "").removeprefix("nncpoly").lstrip(".")
            if module:
                out.add(module.split(".")[0])
            else:
                out |= {a.name for a in node.names}
    return out


@pytest.mark.parametrize("name", RUNTIME)
def test_runtime_modules_import_no_oracle(name):
    assert not _imported(_tree(SRC / f"{name}.py")) & {"oracle", "eps"}


def test_oracle_imports_neither_engine():
    # the desk-scale references judge the direct engine and the eps route,
    # so they must not be built from either
    assert not _imported(_tree(SRC / "oracle.py")) & {"eps", "conversion"}


def test_importing_the_package_leaves_the_eps_route_unloaded():
    # the eps route is a reference for tests, the CLI's check and the bench;
    # a library user who imports nncpoly does not load it
    code = "import sys, nncpoly; print('nncpoly.eps' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_saturation_kernel_imports_only_counting_and_errors():
    assert _imported(_tree(SRC / "satlat.py")) == {"counting", "errors"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_function_level_imports(path):
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [n for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not inner, f"{path.name}:{inner[0].lineno} imports inside {fn.name}()"


@pytest.mark.parametrize("name", ["conversion", "satlat"])
def test_engine_builds_frozensets_only_in_mask_ids(name):
    # a second support representation in the engine means conversions on
    # every step; mask_ids is the one way out, for tests and callers
    tree = _tree(SRC / f"{name}.py")
    allowed = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "mask_ids":
            allowed = {id(n) for n in ast.walk(fn)}
    calls = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "frozenset"
        and id(n) not in allowed
    ]
    assert not calls, f"{name}.py calls frozenset on lines {calls}"


def _names(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name the code mentions."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    return names


def _calls(tree: ast.AST) -> set[str]:
    return {
        n.func.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


@pytest.mark.parametrize("name", ["conversion", "eps"])
def test_engines_share_the_pair_kernel(name):
    # both engines' pair loops run through satlat.adjacent_pairs; a per-pair
    # adjacent() call would bring back three Python calls per pair
    tree = _tree(SRC / f"{name}.py")
    assert "adjacent" not in _names(tree), f"{name}.py references adjacent"
    assert "adjacent_pairs" in _calls(tree), f"{name}.py does not call adjacent_pairs"


def test_face_closures_share_one_helper():
    # every face closure of the direct engine goes through _close_and_keep,
    # where a repeated mask is skipped and charged as walked; supp_cl or a
    # second column walk would close repeated faces again
    tree = _tree(SRC / "conversion.py")
    assert "supp_cl" not in _names(tree)
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    walkers = {
        fn.name
        for fn in functions
        if any(isinstance(n, ast.Attribute) and n.attr == "cols" for n in ast.walk(fn))
    }
    assert walkers == {"_close_and_keep"}
    callers = {fn.name for fn in functions if "_close_and_keep" in _calls(fn)}
    assert callers == {"move_ns", "enumerate_faces"}


def _column_walks(tree: ast.AST) -> set[str]:
    """Functions with an ``&=`` whose right side subscripts ``cols``."""
    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
        if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.BitAnd)
        for s in ast.walk(n.value)
        if isinstance(s, ast.Subscript) and "cols" in _names(s.value)
    }


def test_one_column_walk():
    # satlat.walk is the one loop that ANDs candidates with columns; the
    # pair kernel, supp_cl and the face helper all call it, so a second
    # copy anywhere in the library could drift from it
    walks = {(path.stem, fn) for path in MODULES for fn in _column_walks(_tree(path))}
    assert walks == {("satlat", "walk")}


@pytest.mark.parametrize("name", ["conversion", "eps"])
def test_elements_have_no_record_class(name):
    # an element is its row in one id -> row dict and its bit in the role
    # masks; a record per element would hold its role a second time,
    # beside the masks
    tree = _tree(SRC / f"{name}.py")
    records = {
        cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for n in cls.body
        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name) and n.target.id == "row"
    }
    assert not records, f"{name}.py defines per-element records {sorted(records)}"
    reads = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} & {"role", "line"}
    assert not reads, f"{name}.py reads element attributes {sorted(reads)}"


def test_emptiness_is_no_rows():
    # an engine state (ConvCtx, for both engines) is empty exactly when it
    # holds no rows; a flag beside them would record the same fact twice
    assert "empty" not in {f.name for f in dataclasses.fields(ConvCtx)}


def test_eps_shares_only_the_element_store():
    # the reference engine keeps its state in ConvCtx and starts from the
    # direct engine's initial contexts, but runs its own Chernikova step:
    # it takes no step phase from conversion
    tree = _tree(SRC / "eps.py")
    taken = {
        a.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "conversion"
        for a in n.names
    }
    assert taken == {"ConvCtx", "Role", "Side", "universe_gen_ctx", "init_con_ctx"}
    assert "conversion" not in _names(tree)
    conversion = _tree(SRC / "conversion.py")
    phases = {n.name for n in conversion.body if isinstance(n, ast.FunctionDef)}
    phases -= taken
    assert phases >= {"process_row", "partition_elems", "combine_adjacent"}
    assert not _calls(tree) & phases
    assert "closed_add_row" in _calls(tree)


@pytest.mark.parametrize("name", ["conversion", "eps"])
def test_role_changes_and_removals_go_by_mask(name):
    # set_role and drop take an id mask: a call per element inside a loop
    # would bring back the per-element bookkeeping
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    calls = [
        (n.func.attr, n.lineno)
        for loop in ast.walk(_tree(SRC / f"{name}.py"))
        if isinstance(loop, loops)
        for n in ast.walk(loop)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr in ("set_role", "drop")
    ]
    assert not calls, f"{name}.py changes roles or drops inside loops: {calls}"


def test_saturation_kernel_sorts_no_supports():
    # supports are sorted against a step's parts by mask tests in the
    # engine; the kernel keeps no enum of regions
    assert "Enum" not in _names(_tree(SRC / "satlat.py"))


def test_traced_phases_exist():
    # a phase renamed or deleted here would silently drop out of the
    # benchmark's traced run (perfbench/run.py --trace 1)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, path, _name in tracer.SPANS:
        owner = importlib.import_module(module)
        assert Path(owner.__file__).resolve().parent == SRC, module
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{module}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{module}.{path}"
