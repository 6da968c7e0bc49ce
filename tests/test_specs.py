"""Experiments as specs: building one builds nothing, a verdict is the
conjunction of its gate records (label, measured, lo, hi), and a run plan
builds each mesh a spec declares once and frees it after its last reader."""

import gc
import importlib.util
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from h32fem import experiments, meshing
from h32fem.assembly import GramSet
from h32fem.experiments import (
    REGISTRY,
    ExperimentConfig,
    Spec,
    at_most,
    bounded,
    gate_records,
    geometry_rings,
    overkill_rings,
    run_plan,
    slopes,
    spectral_rings,
)
from test_layering import h32fem_modules

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("reference", _PERFBENCH / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

REFERENCE_TABLES = sorted((_PERFBENCH / "reference").glob("*/seed*/*.csv"))


def expected_meshes(name, cfg):
    """Per level, the mesh each experiment measured its row on before it
    was a spec (the further meshes a level reads are the spec's `reads`)."""
    L, k = cfg.levels, cfg.order
    fixed = {
        "l2_product": [("square", 2, 1), ("square", 4, 1)],
        "leibniz_half": [("square", 3, 1)],
        **dict.fromkeys(("det_identity", "resolvent_identity", "comparison_identity", "neumann_decay"), [None]),
    }
    rings = {
        **dict.fromkeys((
            "dual_inverse", "inverse_estimate", "norm_equivalence", "interpolant_membership",
            "dirichlet_regularity", "robin_regularity", "duality_sampled", "deformation_continuous",
        ), spectral_rings(L)),
        **dict.fromkeys((
            "sz_projection", "sz_error", "h1_stability", "smallness", "deformation_discrete",
        ), overkill_rings(L)),
        **dict.fromkeys(("interp_rates", "lift_consistency", "lift_multilinear"), geometry_rings(L, k)),
        "product_sampled": overkill_rings(L + 1)[1:],
    }
    return fixed[name] if name in fixed else [("disk", n, k) for n in rings[name]]


@pytest.fixture
def no_meshes(monkeypatch):
    def refuse(*key):
        raise AssertionError(f"mesh {key} looked up")

    monkeypatch.setattr(experiments, "get_mesh", refuse)


@pytest.mark.parametrize("levels", [3, 4, 5, 6])
@pytest.mark.parametrize("order", [1, 2])
def test_building_a_spec_builds_nothing(no_meshes, order, levels):
    cfg = ExperimentConfig(order=order, levels=levels)
    for name, (_, build) in REGISTRY.items():
        spec = build(cfg)
        assert isinstance(spec, Spec), name
        assert spec.meshes == expected_meshes(name, cfg), name
        assert spec.columns[0] == "h", name


def _rebuilt(path):
    """The reference table at `path` and the spec rebuilt from its config lines."""
    meta, columns, rows = reference.parse_table(path.read_text())
    cfg = ExperimentConfig(
        order=int(meta["config.order"]), levels=int(meta["config.levels"]),
        seed=int(meta["config.seed"]), kappa=float(meta["config.kappa"]),
    )
    spec = REGISTRY[meta["experiment"]][1](cfg)
    assert (spec.columns, spec.criterion) == (columns, meta["criterion"]), path
    return meta, spec, [[float(v) for v in row] for row in rows]


def test_gate_records_reproduce_every_reference_verdict(no_meshes):
    # 92 registry tables (23 experiments x 2 orders x 2 seeds) and the 24
    # five-level tables of the cold workload, judged from their cells alone
    assert len(REFERENCE_TABLES) == 116
    failing = {}
    for path in REFERENCE_TABLES:
        meta, spec, rows = _rebuilt(path)
        bad = [r for r in gate_records(spec, rows) if not r[2] <= r[1] <= r[3]]
        assert meta["verdict"] == ("fail" if bad else "pass"), path
        if bad:
            failing[path.relative_to(_PERFBENCH / "reference").as_posix()] = bad
    # the known product_sampled failure at --order 1 --levels 5, at both seeds:
    # its coarsest discrete_ratio row is 0.28 against 0.07-0.12 elsewhere
    assert sorted(failing) == [
        f"cold_spectral_p1_l5/seed{seed}/product_sampled.csv" for seed in (20250809, 7)
    ]
    for (label, measured, lo, hi), in failing.values():
        assert (label, lo, hi) == ("discrete_ratio max/min", -np.inf, 4.0)
        assert measured == pytest.approx(4.0687, abs=1e-4)


def test_gates_keep_their_boundaries():
    # each comparison is inclusive: max/min 4 and last/2nd 0.5 or 2 pass
    spec = Spec(
        [None] * 3, ["h", "a", "b"], None, "",
        (bounded(), slopes(0.5, 1.5), at_most(a="b", b=2.0)),
    )
    rows = [[1.0, 1.0, 2.0], [0.5, 0.5, 0.5], [0.25, 0.25, 1.0]]
    records = {label: (x, lo, hi) for label, x, lo, hi in gate_records(spec, rows)}
    assert records["a max/min"] == (4.0, -np.inf, 4.0)
    assert records["a last/2nd"] == (0.5, 0.5, 2.0)
    assert records["b last/2nd"] == (2.0, 0.5, 2.0)
    assert records["a slope - 0"] == (pytest.approx(1.0), 0.5, 1.5)
    assert records["b slope - 0"] == (pytest.approx(0.5), 0.5, 1.5)
    assert records["a level 2"] == (0.25, -np.inf, 1.0)   # a column as the bound
    assert records["b level 0"] == (2.0, -np.inf, 2.0)
    assert all(lo <= x <= hi for x, lo, hi in records.values())
    rows[2][1] = 0.2   # a at the finest level: max/min 5, last/2nd 0.4
    failed = [label for label, x, lo, hi in gate_records(spec, rows) if not lo <= x <= hi]
    assert failed == ["a max/min", "a last/2nd"]


def test_slope_targets_are_compared_as_deviations():
    # |s - t| <= tol, as the rate studies always judged it: the rounded
    # interval [t - tol, t + tol] would also admit s = 0.7 at t = 1, tol 0.3
    h = np.array([1.0, 0.5, 0.25])
    spec = Spec([None] * 3, ["h", "a", "b"], None, "", (slopes(-0.3, 0.3, [1, 2]),))
    (la, sa, lo, hi), (lb, sb, _, _) = gate_records(spec, np.column_stack([h, h, h**2]))
    assert (la, lb, lo, hi) == ("a slope - 1", "b slope - 2", -0.3, 0.3)
    assert abs(sa) < 1e-12 and abs(sb) < 1e-12
    # a slope of 0.65 against the target 1 is rejected, 1.25 is admitted
    spec = Spec([None] * 3, ["h", "a", "b"], None, "", (slopes(-0.3, 0.3, 1),))
    (_, sa, lo, hi), (_, sb, _, _) = gate_records(spec, np.column_stack([h, h**0.65, h**1.25]))
    assert (sa, sb) == (pytest.approx(-0.35), pytest.approx(0.25))
    assert not lo <= sa <= hi and lo <= sb <= hi


# -- the run plan: declared meshes, one build each, released after the last reader

def record_plan(cfg, groups):
    """Each group through the plan on its own empty mesh store with the
    garbage collector off, as `verify all` runs one group per process: the
    shared-mesh keys each experiment requested, the builds per key of each
    group, after each release the keys whose mesh is still alive, and the
    keys of stored meshes whose Gram sets carried a cache of their own just
    before a release."""
    requested, builds, refs, alive, reads, gram_caches = [], [], [], [], {}, []
    shared, release = meshing.shared_mesh, experiments.release_meshes

    def recording(*key):
        requested.append(key)
        return shared(*key)

    def counting(kind, build):
        def built(n, order):
            mesh = build(n, order)
            builds[-1][kind, n, order] += 1
            refs.append(((kind, n, order), weakref.ref(mesh)))
            return mesh
        return built

    def releasing(keep):
        gram_caches.extend(
            key
            for key, mesh in meshing._MESHES.items()
            for built in vars(mesh).get("_cache", {}).values()
            if isinstance(built, GramSet) and "_cache" in vars(built)
        )
        release(keep)
        alive.append({key for key, ref in refs if ref() is not None})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshing, "disk_mesh", counting("disk", meshing.disk_mesh))
        mp.setattr(meshing, "build_square_mesh", counting("square", meshing.build_square_mesh))
        mp.setattr(experiments, "release_meshes", releasing)
        for module in h32fem_modules():
            for attr, value in list(vars(module).items()):
                if value is shared:
                    mp.setattr(module, attr, recording)
        for group in groups:
            builds.append(Counter())
            mp.setattr(meshing, "_MESHES", {})
            gc.disable()   # a mesh must die by reference counting alone
            try:
                for name, _ in run_plan(group, cfg):
                    reads[name] = set(requested)
                    requested.clear()
            finally:
                gc.enable()
    return reads, builds, alive, gram_caches


@pytest.fixture(scope="module", params=[1, 2])
def plan_run(request):
    """`verify all --levels 3` through the plan on an empty mesh store with the
    garbage collector off: the config, the shared-mesh keys each experiment
    requested, the builds per key, and after each release the keys whose
    mesh is still alive. Every operator, solver and transfer is cached on its
    mesh, so no Gram set carries a cache of its own."""
    cfg = ExperimentConfig(order=request.param, levels=3)
    reads, (builds,), alive, gram_caches = record_plan(cfg, [list(REGISTRY)])
    assert gram_caches == []
    return cfg, reads, builds, alive


def test_every_mesh_a_level_reads_is_declared(plan_run):
    cfg, reads, _, _ = plan_run
    assert list(reads) == list(REGISTRY)
    for name, (_, build) in REGISTRY.items():
        assert reads[name] == build(cfg).mesh_keys(), name


def test_each_mesh_is_built_once_and_dies_after_its_last_reader(plan_run):
    cfg, _, builds, alive = plan_run
    declared = [build(cfg).mesh_keys() for _, build in REGISTRY.values()]
    assert builds == Counter(set().union(*declared))
    assert len(alive) == len(REGISTRY)
    for i, name in enumerate(REGISTRY):
        assert alive[i] <= set().union(*declared[i + 1:]), name


def test_no_run_builds_the_p2_square(plan_run):
    # the Gagliardo Gram of P2 over the P1 square takes its DOF map from that
    # square (`meshing.dof_map`); the fixed squares read no level count
    _, _, builds, _ = plan_run
    assert ("square", 3, 1) in builds and ("square", 3, 2) not in builds


# -- groups of the registry, one per process (`plan_groups`)

# the mesh-sharing ladders: the overkill transfers and the spectral operators
# of the disks stay in one process; that group runs head first, the overkill
# family (8 meshes at --levels 4) before the spectral ladders (4)
OVERKILL_FAMILY = ["sz_error", "h1_stability", "smallness"]
SPECTRAL_LADDERS = [
    "sz_projection", "dual_inverse", "inverse_estimate", "norm_equivalence",
    "interpolant_membership", "dirichlet_regularity", "robin_regularity",
    "deformation_discrete", "deformation_continuous", "duality_sampled",
]
SPECTRAL_GROUP = OVERKILL_FAMILY + SPECTRAL_LADDERS
GEOMETRY_LADDERS = ["interp_rates", "lift_consistency", "lift_multilinear"]
SQUARES_AND_MESH_FREE = [
    "product_sampled", "comparison_identity", "leibniz_half", "neumann_decay",
    "resolvent_identity", "det_identity", "l2_product",
]


@pytest.mark.parametrize("order, levels, groups", [
    # at k=1 L3 the geometry ladders' 3 meshes tie with sz_projection's
    (1, 3, [OVERKILL_FAMILY + GEOMETRY_LADDERS + SPECTRAL_LADDERS, SQUARES_AND_MESH_FREE]),
    (2, 3, [SPECTRAL_GROUP, GEOMETRY_LADDERS + SQUARES_AND_MESH_FREE]),
    (1, 4, [SPECTRAL_GROUP, GEOMETRY_LADDERS + SQUARES_AND_MESH_FREE]),
    (2, 4, [SPECTRAL_GROUP, GEOMETRY_LADDERS + SQUARES_AND_MESH_FREE]),
])
def test_plan_groups_pins(order, levels, groups):
    cfg = ExperimentConfig(order=order, levels=levels)
    assert experiments.plan_groups(list(REGISTRY), cfg, 2) == groups


@pytest.mark.parametrize("workers", [1, 2, 3, 64])
@pytest.mark.parametrize("order", [1, 2])
def test_plan_groups_splits_the_registry(no_meshes, order, workers):
    # every name in exactly one group; one group on one CPU and two on more,
    # the first declaring no mesh its head does not; the first runs in
    # descending order of declared meshes, ties in registry order, and the
    # second, like the one group, in registry order
    cfg = ExperimentConfig(order=order)
    groups = experiments.plan_groups(list(REGISTRY), cfg, workers)
    assert len(groups) == min(workers, 2)
    assert sorted(name for g in groups for name in g) == sorted(REGISTRY)
    in_registry_order = lambda group: [name for name in REGISTRY if name in group]
    assert groups[-1] == in_registry_order(groups[-1])
    if workers > 1:
        keys = {name: REGISTRY[name][1](cfg).mesh_keys() for name in groups[0]}
        assert all(keys.values()) and set().union(*keys.values()) == max(keys.values(), key=len)
        assert groups[0] == sorted(in_registry_order(groups[0]), key=lambda name: -len(keys[name]))


@pytest.fixture(scope="module", params=[1, 2])
def group_run(request):
    """`verify all --levels 3` as its two groups, each on its own mesh store:
    the config, the groups, the builds per key of each and the live keys
    after each release."""
    cfg = ExperimentConfig(order=request.param, levels=3)
    groups = experiments.plan_groups(list(REGISTRY), cfg, 2)
    _, builds, alive, _ = record_plan(cfg, groups)
    return cfg, groups, builds, alive


def test_each_group_builds_its_meshes_once(group_run):
    cfg, groups, builds, alive = group_run
    names = [name for group in groups for name in group]
    declared = {name: REGISTRY[name][1](cfg).mesh_keys() for name in names}
    for group, built in zip(groups, builds):
        assert built == Counter(set().union(*(declared[name] for name in group)))
    for i, name in enumerate(names):
        group = next(g for g in groups if name in g)
        later = group[group.index(name) + 1:]
        assert alive[i] <= set().union(*(declared[n] for n in later)), name


# the only meshes built in both processes: small disks the two groups share
BUILT_IN_TWO_GROUPS = {
    1: {("disk", 3, 1), ("disk", 4, 1)},
    2: {("disk", 3, 2), ("disk", 4, 2), ("disk", 12, 2)},
}


def test_meshes_built_in_two_groups_are_pinned(group_run):
    cfg, _, builds, _ = group_run
    assert {key for key, n in sum(builds, Counter()).items() if n > 1} == BUILT_IN_TWO_GROUPS[cfg.order]
