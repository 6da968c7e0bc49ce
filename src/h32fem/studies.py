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
from .basis import edge_shape, edge_shape_deriv
from .lifting import _lifted_shape_gradients, _lifted_surface_data, lift_rule_data
from .norms import l2_norm


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


# -- lifted bilinear forms ------------------------------------------------------


def lifted_bulk_forms(mesh, lm, z, w):
    """m and a forms of the lifts, by pullback quadrature on the mesh."""
    data = lift_rule_data(lm)
    rule = data["rule"]
    wq = rule.weights
    vz, _ = eval_on_elements(z)
    vw, _ = eval_on_elements(w)
    m_l = float(np.einsum("q,eq,eq,eq->", wq, data["det"], vz, vw))
    gp = _lifted_shape_gradients(lm)
    gz = np.einsum("eqbx,eb->eqx", gp, z.coeffs[mesh.elements])
    gw = np.einsum("eqbx,eb->eqx", gp, w.coeffs[mesh.elements])
    a_l = float(np.einsum("q,eq,eqx,eqx->", wq, data["det"], gz, gw))
    return m_l, a_l


def bulk_form_errors(mesh, lm, z, w):
    """Normalized consistency errors of the m and a forms under the lift."""
    g = grams_of(mesh)
    m_h = float(z.coeffs @ (g.M_bulk @ w.coeffs))
    a_h = float(z.coeffs @ (g.A_bulk @ w.coeffs))
    m_l, a_l = lifted_bulk_forms(mesh, lm, z, w)
    nz, nw = l2_norm(z, g), l2_norm(w, g)
    gz = np.sqrt(max(float(z.coeffs @ (g.A_bulk @ z.coeffs)), 1e-300))
    gw = np.sqrt(max(float(w.coeffs @ (g.A_bulk @ w.coeffs)), 1e-300))
    return abs(m_h - m_l) / (nz * nw), abs(a_h - a_l) / (gz * gw)


def lifted_surface_forms(mesh, lm, tz, tw):
    """Surface m and a forms of the lifted traces."""
    sd = _lifted_surface_data(lm)
    er, speed = sd["rule"], sd["speed"]
    psi = edge_shape(mesh.order, er.points)
    dpsi = edge_shape_deriv(mesh.order, er.points)
    zc, wc = tz.coeffs[mesh.surface_faces], tw.coeffs[mesh.surface_faces]
    zv, wv, dz, dw = zc @ psi.T, wc @ psi.T, zc @ dpsi.T, wc @ dpsi.T
    ms = float(np.sum(er.weights * speed * zv * wv))
    asur = float(np.sum(er.weights * dz * dw / speed))
    return ms, asur


def surface_form_errors(mesh, lm, tz, tw):
    """Normalized consistency errors of the surface forms under the lift."""
    g = grams_of(mesh)
    ms_h = float(tz.coeffs @ (g.M_surf @ tw.coeffs))
    as_h = float(tz.coeffs @ (g.A_surf @ tw.coeffs))
    ms_l, as_l = lifted_surface_forms(mesh, lm, tz, tw)
    l2s = lambda t: np.sqrt(max(float(t.coeffs @ (g.M_surf @ t.coeffs)), 1e-300))
    h1s = lambda t: np.sqrt(max(float(t.coeffs @ (g.A_surf @ t.coeffs)), 1e-300))
    em = abs(ms_h - ms_l) / (l2s(tz) * l2s(tw))
    ea = abs(as_h - as_l) / (h1s(tz) * h1s(tw))
    return em, ea


# -- multilinear integrals under the lift ----------------------------------------


def multilinear_gradient_integral(mesh, fields, coeff_fn, lm=None):
    """integral of coeff_fn(g1, ..., gm) over the lift lm of the mesh, or
    over the plain mesh when lm is None.

    fields: scalar FE functions whose gradients feed coeff_fn, which maps
    stacked gradient arrays (each (ne, m, 2)) to the scalar integrand.
    """
    if lm is not None:
        data = lift_rule_data(lm)
        rule, det = data["rule"], data["det"]
        gp = _lifted_shape_gradients(lm)
        grads = [
            np.einsum("eqbx,eb...->eqx...", gp, f.coeffs[mesh.elements])
            for f in fields
        ]
    else:
        qd = bulk_quad_data(mesh)
        rule, det = qd["rule"], qd["det"]
        grads = [eval_on_elements(f)[1] for f in fields]
    integrand = coeff_fn(*grads)
    return float(np.einsum("q,eq,eq->", rule.weights, det, integrand))


def sampled_w1inf_panel(u):
    """(sup |u|, sup |grad u|) over the assembly rule points."""
    vals, grads = eval_on_elements(u)
    return float(np.abs(vals).max()), float(np.linalg.norm(grads, axis=-1).max())


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
