"""The lift, the locator, the Gram set and the spectral operator are
functions of the mesh, and the layers import in one direction.

meshing -> lifting -> assembly: the lift is `lifting.lift_of(mesh)` and the
point locator `lifting.locator_of(mesh)`, so no public function takes either
next to the mesh, and `lifting` needs nothing from `assembly`. The mesh
derives its boundary from its elements, so its constructor takes none.
The Gram set is `grams_of(mesh)` and the operator of a DOF set
`spectral_decomp(mesh, dofset)`, both cached on the mesh, so no public
function takes either; only the dense oracle takes an operator, and the
experiments reach the operators through the norms alone.
Rate tables come from one runner, `experiments.run_experiment`.
"""

import ast
import importlib
import inspect
import pkgutil
import os
import re
import subprocess
import sys
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
    # every locator is the one cached on its mesh, so one grid of element
    # boxes and one set of closed-form inverses serve every point located in
    # that mesh
    assert constructors_of("MeshLocator") == ["h32fem.lifting.locator_of"]


def test_lifted_jacobians_are_formed_only_in_compose():
    # the lifted bulk and surface records, the locator's Newton and every
    # lifted point read Lambda o F through `LiftMap.compose`
    assert constructors_of("displacement") == ["h32fem.lifting.compose"]


def test_only_run_experiment_constructs_a_rate_table():
    # one runner: every table is measured, gated and fitted in one place
    assert constructors_of("RateTable") == ["h32fem.experiments.run_experiment"]


def np_linalg_callers(attr):
    """The top-level functions, methods or modules of h32fem that call
    `np.linalg.<attr>`, matched on the attribute call (`inv` is also the
    name of local variables)."""
    return sorted({
        f"{module}.{getattr(scope, 'name', '<module>')}"
        for module, scope in scopes()
        for node in ast.walk(scope)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == f"np.linalg.{attr}"
    })


def test_lapack_solves_only_per_cell_systems():
    # a 2x2 inverse of the matrix algebra is `meshing._inverse_2x2` (the
    # resolvent through `multilinear._shifted_inverse`); LAPACK solves only
    # stacks of per-cell systems of the local basis size (2x2 on P1 edges):
    # the element pencils of the eigenvalue bound and the Scott-Zhang moments
    assert np_linalg_callers("inv") == []
    assert np_linalg_callers("solve") == [
        "h32fem.assembly._eig_bound", "h32fem.interp._build_sz_moments",
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
    # `verify all` runs its groups in processes of its own, started through
    # `multiprocessing`; the library runs in the process that calls it and
    # starts none, and no module forks by hand
    assert readers_of("multiprocessing") == ["h32fem.cli"]
    assert readers_of("fork") == []


def test_mesh_constructor_takes_no_boundary():
    params = list(inspect.signature(Mesh).parameters)
    assert params == ["nodes", "elements", "order", "domain_kind"]
    assert not [p for p in params if "boundary" in p or "face" in p]


# the dense oracle of the tests and demos is the one function that takes an operator
GRAMS_OR_OPERATOR_ALLOWED = {"h32fem.norms.dense_eigenpairs": {"sb"}}


def test_no_public_function_takes_a_gram_set_or_operator():
    found = {}
    for module in h32fem_modules():
        for name, fn in public_callables(module):
            taken = {"grams", "sb", "sbi"} & set(inspect.signature(fn).parameters)
            if taken:
                found[f"{module.__name__}.{name}"] = taken
    assert found == GRAMS_OR_OPERATOR_ALLOWED


def test_experiments_reach_the_operator_only_through_the_norms():
    # every operator quantity of a level is a dual norm or an H^s norm
    # (`norms.dual_norms`, `norms.h_s_norms` and the norms over them): no
    # experiment builds, decomposes or applies an operator itself
    called = [
        caller
        for name in ("spectral_decomp", "dense_eigenpairs", "apply")
        for caller in constructors_of(name)
        if caller.startswith("h32fem.experiments.")
    ]
    assert called == []


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


# scipy subpackages that no process of the program loads: the locator's grid
# replaced the KD tree (`scipy.spatial`), and the quadrature computes its
# elliptic functions by the AGM (`scipy.special`); importing the two added
# 7.5 MB and about 80 ms (2 vCPUs) to the start-up of every process
UNLOADED_SCIPY = ("scipy.spatial", "scipy.special")


def test_no_module_imports_scipy_spatial_or_special():
    imported = set()
    for _, scope in scopes():
        for node in ast.walk(scope):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    assert "scipy.sparse" in imported
    assert not [name for name in imported if name.startswith(UNLOADED_SCIPY)]


def test_importing_the_cli_loads_neither_scipy_spatial_nor_special():
    src = str(Path(h32fem.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, h32fem.cli; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = loaded.stdout.split()
    assert "scipy.sparse" in modules and "h32fem.cli" in modules
    assert not [name for name in modules if name.startswith(UNLOADED_SCIPY)]
