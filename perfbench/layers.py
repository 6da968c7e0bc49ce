"""Per-layer metrics computed from recorded spans.

A span's self time is its duration minus the time its direct children
cover. Spans come from single-threaded call stacks, so the direct
children of one span never overlap and the covered time is their summed
duration.
"""

import numpy as np

from tracer import KERNELS, LAYERS, LOCATE, RUN_EXPERIMENT

EXPERIMENTS = (
    "interp_rates", "lift_consistency", "lift_multilinear", "sz_projection",
    "sz_error", "dual_inverse", "inverse_estimate", "h1_stability",
    "norm_equivalence", "interpolant_membership", "dirichlet_regularity",
    "robin_regularity", "smallness", "product_sampled", "comparison_identity",
    "deformation_discrete", "deformation_continuous", "leibniz_half",
    "neumann_decay", "resolvent_identity", "det_identity", "duality_sampled",
    "l2_product",
)


def concat(span_sets):
    """Join the span sets of several runs into one, renumbering names and parents."""
    names = list(dict.fromkeys(str(n) for s in span_sets for n in s["names"]))
    index = {n: i for i, n in enumerate(names)}
    parts, offset = [], 0
    for s in span_sets:
        remap = np.array([index[str(n)] for n in s["names"]], dtype=np.int64)
        part = {k: s[k] for k in ("start", "end", "size", "run_id")}
        part["name_id"] = remap[s["name_id"]]
        part["parent"] = np.where(s["parent"] < 0, -1, s["parent"] + offset)
        parts.append(part)
        offset += len(s["start"])
    out = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    out["names"] = np.array(names, dtype=str)
    return out


def self_times(spans):
    """Each span's duration minus the summed duration of its direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def hit_ratio(built, requested):
    """1 - built / requested: the share of requests served from a cache."""
    return 1.0 - built / requested if requested else 0.0


def layer_metrics(spans):
    """Every per-layer metric of one traced workload run, by name."""
    names = [str(n) for n in spans["names"]]
    fn = np.array(names, dtype=str)[spans["name_id"]]
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=str)[spans["name_id"]]
    dur = spans["end"] - spans["start"]
    self_s = self_times(spans)
    size = spans["size"]

    def calls(name):
        return int(np.count_nonzero(fn == name))

    m = {}
    for lay in LAYERS + ("kernel",):
        sel = layer == lay
        m[f"{lay}.calls"] = int(np.count_nonzero(sel))
        m[f"{lay}.self_s"] = float(self_s[sel].sum())
    for name, _, _ in KERNELS:
        sel = fn == name
        m[f"{name}.calls"] = int(np.count_nonzero(sel))
        m[f"{name}.self_s"] = float(self_s[sel].sum())
    eig = size[fn == "kernel.eigh"]
    m["kernel.eigh.n_max"] = int(eig.max()) if len(eig) else 0
    m["kernel.eigh.n3_sum"] = float(np.sum(eig**3))
    m["norms.spectral_hit_ratio"] = hit_ratio(
        m["kernel.eigh.calls"],
        calls("norms.spectral_decomp") + calls("norms.surface_spectral_decomp"),
    )
    m["assembly.grams_hit_ratio"] = hit_ratio(
        calls("assembly.assemble_grams"), calls("assembly.grams_of")
    )
    m["meshing.disk_mesh.calls"] = calls("meshing.disk_mesh")
    ne = size[fn == "gagliardo.gagliardo_seminorms"]
    m["gagliardo.elem_pairs"] = int(np.sum(ne * (ne + 1) / 2))
    loc = fn == LOCATE
    m["lifting.locate.calls"] = int(np.count_nonzero(loc))
    m["lifting.locate.points"] = int(size[loc].sum())
    m["lifting.locate.self_s"] = float(self_s[loc].sum())
    m["lifting.lift_mixed.calls"] = calls("lifting.lift_mixed")
    m["basis.tri_shape.calls"] = calls("basis.tri_shape")
    m["basis.tri_shape_grad.calls"] = calls("basis.tri_shape_grad")
    m["interp.scott_zhang.incl_s"] = float(dur[fn == "interp.scott_zhang"].sum())
    m["interp.dirichlet_lift.incl_s"] = float(dur[fn == "interp.dirichlet_lift"].sum())
    for exp in EXPERIMENTS:
        m[f"exp.{exp}.incl_s"] = float(dur[fn == f"{RUN_EXPERIMENT}:{exp}"].sum())
    return m


def unit_of(name):
    """The unit of a metric `layer_metrics` returns, from its name suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
