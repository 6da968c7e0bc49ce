"""Shared measurement routines behind the experiment registry.

Everything here computes raw numbers (errors, ratios, sampled norms) on a
given mesh; the registry in experiments.py turns them into rate tables and
verdicts.
"""

import numpy as np

from .assembly import (
    FeFunction,
    bulk_quad_data,
    eval_on_elements,
    grams_of,
    nodal_interp_bulk,
    nodal_interp_surface,
    surface_quad_data,
    trace,
)


# -- smooth test fields --------------------------------------------------------


class SmoothField:
    """A scalar test function with analytic gradient."""

    def __init__(self, fn, grad):
        self.fn = fn
        self.grad = grad

    def __call__(self, pts):
        return self.fn(pts)


SMOOTH_SCALAR = SmoothField(
    lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]),
    lambda p: np.column_stack(
        [np.cos(p[:, 0]) * np.cos(p[:, 1]), -np.sin(p[:, 0]) * np.sin(p[:, 1])]
    ),
)

SMOOTH_SCALAR_2 = SmoothField(
    lambda p: np.sin(p[:, 0] + 0.3 * p[:, 1]) + 0.5 * p[:, 0] * p[:, 1],
    lambda p: np.column_stack(
        [
            np.cos(p[:, 0] + 0.3 * p[:, 1]) + 0.5 * p[:, 1],
            0.3 * np.cos(p[:, 0] + 0.3 * p[:, 1]) + 0.5 * p[:, 0],
        ]
    ),
)


def smooth_boundary_field(p):
    th = np.arctan2(p[:, 1], p[:, 0])
    return np.cos(2.0 * th)


def smooth_boundary_gradient(p):
    th = np.arctan2(p[:, 1], p[:, 0])
    r2 = p[:, 0] ** 2 + p[:, 1] ** 2
    return np.stack(
        [2.0 * np.sin(2.0 * th) * p[:, 1] / r2, -2.0 * np.sin(2.0 * th) * p[:, 0] / r2],
        axis=-1,
    )


# -- boundary-layer test panels -------------------------------------------------


def boundary_bubble(mesh):
    """FE function equal to 1 at every boundary node and 0 inside."""
    c = np.zeros(mesh.n_nodes)
    c[mesh.boundary_node_ids] = 1.0
    return FeFunction(mesh, c)


def boundary_sawtooth(mesh, on_midnodes=False):
    """Alternating +-1 boundary values oscillating at the edge scale.

    The sign alternates along the boundary in angular order over the vertex
    nodes (or, for order 2 with on_midnodes, over the midside nodes); all
    other coefficients vanish. These panels correlate with the sign
    structure of the geometric consistency error, which integrates one
    order better against smooth test pairs.
    """
    ids = mesh.boundary_node_ids
    ang = np.arctan2(mesh.nodes[ids][:, 1], mesh.nodes[ids][:, 0])
    order = ids[np.argsort(ang)]
    n_vertices = mesh.elements[:, :3].max() + 1
    c = np.zeros(mesh.n_nodes)
    count = 0
    for nid in order:
        is_vertex = nid < n_vertices
        if is_vertex != on_midnodes:
            c[nid] = 1.0 if count % 2 == 0 else -1.0
            count += 1
    return FeFunction(mesh, c)


def bulk_form_pairs(mesh):
    """Test pairs for the bulk form consistency errors (max over panel)."""
    bub = boundary_bubble(mesh)
    saw = boundary_sawtooth(mesh)
    pairs = [(bub, bub), (saw, bub), (saw, saw)]
    if mesh.order == 2:
        sawm = boundary_sawtooth(mesh, on_midnodes=True)
        pairs += [(sawm, saw), (sawm, bub)]
    return pairs


def surface_form_pairs(mesh):
    """Test pairs for the surface form consistency errors."""
    smooth = trace(nodal_interp_bulk(mesh, SMOOTH_SCALAR_2))
    bub = trace(boundary_bubble(mesh))
    saw = trace(boundary_sawtooth(mesh))
    pairs = [(smooth, smooth), (saw, bub), (saw, saw), (saw, smooth)]
    if mesh.order == 2:
        sawm = trace(boundary_sawtooth(mesh, on_midnodes=True))
        pairs += [(sawm, saw), (sawm, bub), (sawm, smooth)]
    return pairs


# -- interpolation errors -------------------------------------------------------


def bulk_interp_errors(mesh, field):
    """L2 and H1 errors of the bulk nodal interpolant of a smooth field."""
    qd = bulk_quad_data(mesh)
    u = nodal_interp_bulk(mesh, field)
    vals, grads = eval_on_elements(u)
    pts = qd["pts"].reshape(-1, 2)
    we = field(pts).reshape(vals.shape)
    ge = field.grad(pts).reshape(grads.shape)
    w = qd["rule"].weights
    l2sq = np.einsum("q,eq,eq->", w, qd["det"], (vals - we) ** 2)
    h1semi = np.einsum("q,eq,eqx->", w, qd["det"], (grads - ge) ** 2).sum()
    return float(np.sqrt(l2sq)), float(np.sqrt(l2sq + h1semi))


def surface_interp_errors(mesh):
    """L2 and H1 errors of the surface nodal interpolant of cos(2 theta)."""
    zi = nodal_interp_surface(mesh, smooth_boundary_field)
    sd = surface_quad_data(mesh)
    sconn = mesh.surface_faces
    vals = np.einsum("qb,fb->fq", sd["psi"], zi.coeffs[sconn])
    flat = sd["pts"].reshape(-1, 2)
    ze = smooth_boundary_field(flat).reshape(vals.shape)
    dvals = np.einsum("qb,fb->fq", sd["dpsi"], zi.coeffs[sconn])
    gz = smooth_boundary_gradient(flat).reshape(sd["pts"].shape)
    tang = sd["vel"] / sd["speed"][..., None]
    dze = np.einsum("fqx,fqx->fq", gz, tang)
    dfe = dvals / sd["speed"]
    w = sd["rule"].weights
    l2sq = np.einsum("q,fq,fq->", w, sd["speed"], (vals - ze) ** 2)
    h1semi = np.einsum("q,fq,fq->", w, sd["speed"], (dfe - dze) ** 2)
    return float(np.sqrt(l2sq)), float(np.sqrt(l2sq + h1semi))


# -- bilinear and multilinear forms under the lift --------------------------------


def form_errors(z, w, forms):
    """Normalized consistency errors under the lift of the named GramSet forms
    (("M_bulk", "A_bulk") or ("M_surf", "A_surf")) at the pair (z, w):
    |z.(F_h - F_lift)w| / (|z|_F |w|_F), with |t|_F = sqrt(t.F_h t) floored at 1e-150."""
    g, gl = grams_of(z.mesh), grams_of(z.mesh, lifted=True)
    z, w = z.coeffs, w.coeffs
    norm = lambda F, t: np.sqrt(max(float(t @ (F @ t)), 1e-300))
    errors = []
    for f in forms:
        Fh, Fl = getattr(g, f), getattr(gl, f)
        errors.append(abs(float(z @ ((Fh - Fl) @ w))) / (norm(Fh, z) * norm(Fh, w)))
    return tuple(errors)


def multilinear_gradient_integral(fields, coeff_fn, qd=None):
    """integral of coeff_fn(g1, ..., gm) by the quadrature record qd: by
    default the fields' mesh's bulk_quad_data; the lifted record integrates
    over the lift of that mesh onto the exact domain.

    fields: scalar FE functions whose gradients feed coeff_fn, which maps
    stacked gradient arrays (each (ne, m, 2)) to the scalar integrand.
    """
    qd = qd or bulk_quad_data(fields[0].mesh)
    integrand = coeff_fn(*(eval_on_elements(f, qd)[1] for f in fields))
    return float(np.einsum("q,eq,eq->", qd["rule"].weights, qd["det"], integrand))


def sampled_whalf_inf(u):
    """Sampled W^{1/2,infty}-type seminorm: sup |u(x)-u(y)| / |x-y|^{1/2}.

    Taken over 400 random quadrature-point pairs (seed 0); used only as a
    normalizer in slack-based product-estimate checks.
    """
    qd = bulk_quad_data(u.mesh)
    vals, _ = eval_on_elements(u)
    pts = qd["pts"].reshape(-1, 2)
    v = vals.reshape(-1)
    rng = np.random.default_rng(0)
    i = rng.integers(0, len(v), 400)
    j = rng.integers(0, len(v), 400)
    keep = i != j
    i, j = i[keep], j[keep]
    d = np.linalg.norm(pts[i] - pts[j], axis=1)
    return float(np.max(np.abs(v[i] - v[j]) / np.sqrt(d)))
