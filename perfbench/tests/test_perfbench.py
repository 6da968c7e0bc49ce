import os
import sys

import numpy as np
import pytest

import layers
import reference
import run
from tracer import Tracer

REF = os.path.join(run.REFERENCE, "registry_p1", "seed20250809")


def _spans(rows):
    """Span arrays from (name, start, end, parent) rows."""
    names = list(dict.fromkeys(r[0] for r in rows))
    return {
        "names": np.array(names, dtype=str),
        "name_id": np.array([names.index(r[0]) for r in rows]),
        "start": np.array([r[1] for r in rows], dtype=float),
        "end": np.array([r[2] for r in rows], dtype=float),
        "parent": np.array([r[3] for r in rows]),
        "size": np.zeros(len(rows)),
        "run_id": np.zeros(len(rows), dtype=np.int32),
    }


NESTED = [
    ("experiments.run_experiment:dual_inverse", 0.0, 10.0, -1),
    ("norms.spectral_decomp", 1.0, 4.0, 0),
    ("norms.h_s_norm", 5.0, 9.0, 0),
    ("kernel.eigh", 6.0, 7.5, 2),
]


def test_self_time_subtracts_direct_children_only():
    self_s = layers.self_times(_spans(NESTED))
    np.testing.assert_allclose(self_s, [3.0, 3.0, 2.5, 1.5])
    m = layers.layer_metrics(_spans(NESTED))
    assert m["experiments.self_s"] == pytest.approx(3.0)
    assert m["norms.self_s"] == pytest.approx(5.5)
    assert m["kernel.eigh.self_s"] == pytest.approx(1.5)
    assert m["norms.calls"] == 2
    assert m["exp.dual_inverse.incl_s"] == pytest.approx(10.0)
    assert m["exp.sz_error.incl_s"] == 0.0


def test_concat_renumbers_parents_and_names():
    second = [("kernel.eigh", 20.0, 21.0, -1), ("norms.h_s_norm", 22.0, 30.0, -1),
              ("kernel.eigh", 23.0, 24.0, 1)]
    merged = layers.concat([_spans(NESTED), _spans(second)])
    assert list(merged["parent"]) == [-1, 0, 0, 2, -1, -1, 5]
    names = merged["names"][merged["name_id"]]
    assert list(names[4:]) == ["kernel.eigh", "norms.h_s_norm", "kernel.eigh"]
    np.testing.assert_allclose(layers.self_times(merged)[5], 7.0)


def test_hit_ratios():
    rows = [("norms.spectral_decomp", i, i + 0.5, -1) for i in range(4)]
    rows += [("norms.surface_spectral_decomp", 4.0, 4.5, -1)]
    rows += [("kernel.eigh", 0.1, 0.2, 0), ("kernel.eigh", 4.1, 4.2, 4)]
    rows += [("assembly.grams_of", 10.0 + i, 10.5 + i, -1) for i in range(10)]
    rows += [("assembly.assemble_grams", 10.1 + i, 10.2 + i, 8 + i) for i in range(3)]
    m = layers.layer_metrics(_spans(rows))
    assert m["norms.spectral_hit_ratio"] == pytest.approx(1 - 2 / 5)
    assert m["assembly.grams_hit_ratio"] == pytest.approx(1 - 3 / 10)
    assert layers.hit_ratio(0, 0) == 0.0


def _namespaces():
    import scipy.linalg
    import scipy.sparse.linalg

    from h32fem.lifting import MeshLocator

    mods = [m for n, m in sys.modules.items() if n == "h32fem" or n.startswith("h32fem.")]
    mods += [scipy.linalg, scipy.sparse.linalg]
    snap = {m.__name__: dict(vars(m)) for m in mods}
    snap["MeshLocator"] = dict(vars(MeshLocator))
    return snap


def test_tracer_wraps_every_binding_and_restores_namespaces():
    import h32fem.cli  # noqa: F401  (imports every layer module)
    import h32fem.experiments as experiments
    import h32fem.norms as norms
    from h32fem.harness import render_csv

    cfg = experiments.ExperimentConfig(order=1, levels=3, seed=7)
    plain = render_csv(experiments.run_experiment("inverse_estimate", cfg))
    before = _namespaces()
    tracer = Tracer()
    with tracer:
        assert experiments.spectral_decomp is norms.spectral_decomp
        assert experiments.spectral_decomp is not before["h32fem.norms"]["spectral_decomp"]
        traced = render_csv(experiments.run_experiment("inverse_estimate", cfg))
        experiments.get_mesh("disk", 3, 1)
    after = _namespaces()
    assert before.keys() == after.keys()
    for mod, ns in before.items():
        assert ns.keys() == after[mod].keys(), mod
        changed = [k for k in ns if ns[k] is not after[mod][k]]
        assert not changed, (mod, changed)
    assert traced == plain

    spans = tracer.spans()
    names = spans["names"][spans["name_id"]]
    assert names[0] == "experiments.run_experiment:inverse_estimate"
    assert "experiments.get_mesh" in names
    m = layers.layer_metrics(spans)
    assert m["exp.inverse_estimate.incl_s"] > 0
    assert (spans["end"] >= spans["start"]).all()


def test_tracer_records_kernel_sizes():
    from h32fem.assembly import grams_of
    from h32fem.meshing import disk_mesh
    from h32fem.norms import spectral_decomp

    mesh = disk_mesh(2, 1)
    with Tracer() as tracer:
        spectral_decomp(grams_of(mesh))
    m = layers.layer_metrics(tracer.spans())
    assert m["kernel.eigh.calls"] == 1
    assert m["kernel.eigh.n_max"] == mesh.n_nodes
    assert m["kernel.eigh.n3_sum"] == mesh.n_nodes**3


def test_span_cost_is_positive_and_records_no_spans():
    tracer = Tracer()
    cost = tracer.cost_per_span(calls=2000, repeats=3)
    assert 0.0 <= cost < 1e-3
    assert len(tracer.start) == 0 and tracer.names == []


def _read(name):
    with open(os.path.join(REF, f"{name}.csv")) as f:
        return f.read()


def test_reference_check_flags_perturbed_cell_and_flipped_verdict(tmp_path):
    text = _read("product_sampled")
    assert reference.compare(text, text) == []
    cell = "0.119638634191"
    assert cell in text
    nudged = text.replace(cell, repr(float(cell) * (1 + 1e-12)))
    assert reference.compare(text, nudged) == []
    perturbed = text.replace(cell, repr(float(cell) * (1 + 1e-6)))
    msgs = reference.compare(text, perturbed)
    assert len(msgs) == 1 and "discrete_ratio" in msgs[0]
    flipped = text.replace("# verdict=pass", "# verdict=fail")
    msgs = reference.compare(text, flipped)
    assert len(msgs) == 1 and msgs[0].startswith("verdict")

    for name, body in (("product_sampled", perturbed), ("det_identity", _read("det_identity"))):
        (tmp_path / f"{name}.csv").write_text(body)
    result = reference.check_tables(str(tmp_path), REF, ["product_sampled", "det_identity", "sz_error"])
    assert result["product_sampled"][0] and len(result["product_sampled"][1]) == 1
    assert result["det_identity"] == (False, [])
    assert result["sz_error"][0] and "no table" in result["sz_error"][1][0]


def test_reference_check_has_absolute_floor_for_residual_cells():
    text = _read("det_identity")
    assert "5.55111512313e-16" in text
    assert reference.compare(text, text.replace("5.55111512313e-16", "1.11022302463e-15")) == []
    assert reference.compare(text, text.replace("5.55111512313e-16", "1e-11")) != []


def test_reference_check_skips_r2_of_a_flat_fit_only():
    flat = _read("dirichlet_regularity")
    assert "# fit_r2=0.148466257669" in flat
    assert reference.compare(flat, flat.replace("# fit_r2=0.148466257669", "# fit_r2=0.1")) == []
    text = _read("product_sampled")
    assert reference.compare(text, text.replace("# fit_r2=0.751151628084", "# fit_r2=0.7")) != []


def test_failed_verdict_that_matches_its_reference_is_counted_not_flagged():
    ref = os.path.join(run.REFERENCE, "cold_spectral_p1_l5", "seed7")
    bad, problems = reference.check_tables(ref, ref, ["product_sampled"])["product_sampled"]
    assert bad and problems == []


def test_experiment_list_matches_registry():
    from h32fem.experiments import REGISTRY

    assert tuple(REGISTRY) == layers.EXPERIMENTS
    assert set(run.COLD_SPECTRAL) <= set(REGISTRY)


def test_every_seed_maps_to_a_reference_seed():
    for seed in run.REFERENCE_SEEDS:
        assert run.experiment_seed(seed) == seed
    assert {run.experiment_seed(s) for s in range(10)} == set(run.REFERENCE_SEEDS)
