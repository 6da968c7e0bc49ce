"""The lift, the locator, the Gram set and the spectral operator are
functions of the mesh, and the layers import in one direction.

meshing -> lifting -> assembly: the lift is `lifting.lift_of(mesh)` and the
point locator `lifting.locator_of(mesh)`, so no public function takes either
next to the mesh, and `lifting` needs nothing from `assembly`. The mesh
derives its boundary from its elements, so its constructor takes none. The Gram set is `grams_of(mesh)` and the operator
`spectral_decomp` of it, so no public function takes either next to an FE
function; only the operator builders and the vector-level norms do.
Rate tables come from one runner, `experiments.run_experiment`.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import h32fem
import h32fem.assembly
import h32fem.lifting
from h32fem.meshing import Mesh


def h32fem_modules():
    # every module but the entry point, which runs the CLI on import
    names = [info.name for info in pkgutil.iter_modules(h32fem.__path__) if info.name != "__main__"]
    return [importlib.import_module(f"h32fem.{name}") for name in names]


def public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr in vars(obj):
                # getattr unwraps static and class methods
                member = getattr(obj, attr)
                public = attr == "__init__" or not attr.startswith("_")
                if public and (inspect.isfunction(member) or inspect.ismethod(member)):
                    yield f"{name}.{attr}", member


def test_no_public_function_takes_the_lift():
    found = [
        f"{module.__name__}.{name}"
        for module in h32fem_modules()
        for name, fn in public_callables(module)
        if {"lift", "lm"} & set(inspect.signature(fn).parameters)
    ]
    assert found == []


def test_no_public_function_takes_a_locator():
    found = [
        f"{module.__name__}.{name}"
        for module in h32fem_modules()
        for name, fn in public_callables(module)
        if {"locator", "loc", "ctx"} & set(inspect.signature(fn).parameters)
    ]
    assert found == []


def scopes():
    """(module name, node) of every top-level statement and function of
    h32fem, and of the methods of its classes."""
    for module in h32fem_modules():
        for top in ast.parse(inspect.getsource(module)).body:
            for scope in top.body if isinstance(top, ast.ClassDef) else [top]:
                yield module.__name__, scope


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def constructors_of(cls_name):
    """The top-level functions, methods or modules of h32fem that call `cls_name`."""
    return [
        f"{module}.{getattr(scope, 'name', '<module>')}"
        for module, scope in scopes()
        for node in ast.walk(scope)
        if _name(getattr(node, "func", None)) == cls_name
    ]


def readers_of(name):
    """The modules of h32fem that name `name`: load, attribute or import."""
    return sorted({
        module
        for module, scope in scopes()
        for node in ast.walk(scope)
        if _name(node) == name or isinstance(node, ast.alias) and node.name == name
    })


def memoized_functions():
    """The functions of h32fem, nested ones too, decorated with functools'
    `cache` or `lru_cache` (bare or called)."""
    return [
        f"{module}.{node.name}"
        for module, scope in scopes()
        for node in ast.walk(scope)
        for deco in getattr(node, "decorator_list", [])
        if _name(getattr(deco, "func", deco)) in ("cache", "lru_cache")
    ]


def test_only_locator_of_constructs_a_locator():
    # every locator is the one cached on its mesh, so one KD-tree and one set
    # of closed-form inverses serve every point located in that mesh
    assert constructors_of("MeshLocator") == ["h32fem.lifting.locator_of"]


def test_lifted_jacobians_are_formed_only_in_compose():
    # the lifted bulk and surface records, the locator's Newton and every
    # lifted point read Lambda o F through `LiftMap.compose`
    assert constructors_of("displacement") == ["h32fem.lifting.compose"]


def test_only_run_experiment_constructs_a_rate_table():
    # one runner: every table is measured, gated and fitted in one place; the
    # JSON reader only rebuilds a table that was already written
    assert sorted(constructors_of("RateTable")) == [
        "h32fem.experiments.run_experiment", "h32fem.harness.table_from_json",
    ]


def test_no_process_cache_holds_a_mesh_or_what_is_built_from_one():
    # meshes live in the store a run releases (`meshing.release_meshes`) and
    # what is built from a mesh is cached on it; a functools cache would hold
    # either to the end of the process. The Duffy layout is keyed by the
    # quadrature degree alone.
    assert memoized_functions() == ["h32fem.gagliardo._duffy_layout"]


def test_the_overkill_key_and_the_p2_numbering_are_each_coded_once():
    # overkill meshes are found by `interp.overkill_key` alone, and every P2
    # DOF numbering comes from `meshing` (`_finish_mesh`, `dof_map`)
    assert readers_of("OVERKILL_LEVEL") == ["h32fem.interp"]
    callers = constructors_of("_add_midside_nodes")
    assert {name.rsplit(".", 1)[0] for name in callers} == {"h32fem.meshing"}


def test_only_the_cli_touches_the_allocator():
    # the allocator policy is the program's, set in `cli.main`: importing the
    # library leaves the allocator as the embedding process has it
    assert readers_of("ctypes") == readers_of("mallopt") == ["h32fem.cli"]


def test_only_the_cli_forks():
    # `verify all` runs its groups in processes of its own; the library runs
    # in the process that calls it and starts none
    assert readers_of("fork") == ["h32fem.cli"]


def test_mesh_constructor_takes_no_boundary():
    params = list(inspect.signature(Mesh).parameters)
    assert params == ["nodes", "elements", "order", "domain_kind"]
    assert not [p for p in params if "boundary" in p or "face" in p]


# the operator builders take the Gram set; the vector-level norms the operator
GRAMS_OR_OPERATOR_ALLOWED = {
    "h32fem.norms.spectral_decomp": {"grams"},
    "h32fem.norms.spectral_power_norm": {"sb"},
    "h32fem.norms.dual_norm_from_load": {"sb"},
    "h32fem.norms.dense_eigenpairs": {"sb"},
}


def test_no_public_function_takes_a_gram_set_or_operator():
    found = {}
    for module in h32fem_modules():
        for name, fn in public_callables(module):
            taken = {"grams", "sb", "sbi"} & set(inspect.signature(fn).parameters)
            if taken:
                found[f"{module.__name__}.{name}"] = taken
    assert found == GRAMS_OR_OPERATOR_ALLOWED


def test_lifting_binds_nothing_from_assembly():
    lifting = h32fem.lifting
    assert not any(
        value is h32fem.assembly or getattr(value, "__module__", None) == "h32fem.assembly"
        for value in vars(lifting).values()
    )
    # nor imports it anywhere, function-local imports included
    tree = ast.parse(inspect.getsource(lifting))
    imported = [
        name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
    ]
    assert not [name for name in imported if name.split(".")[-1] == "assembly"]


def test_readme_names_only_code_that_exists():
    # every backticked `module.attr` of an h32fem module in the README resolves
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    modules = {module.__name__.rsplit(".", 1)[1]: module for module in h32fem_modules()}
    refs = {(mod, attr) for mod, attr in re.findall(r"`(\w+)\.(\w+)", readme) if mod in modules}
    missing = sorted(f"{mod}.{attr}" for mod, attr in refs if not hasattr(modules[mod], attr))
    assert refs and missing == []
