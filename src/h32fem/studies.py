"""Shared measurement routines behind the experiment registry.

Everything here computes raw numbers (errors, ratios, sampled norms) on a
given mesh; the registry in experiments.py turns them into rate tables and
verdicts. Smooth test fields carry their analytic gradients (`SmoothField`),
the bulk and surface form panels come from one set of boundary panels
(`form_pairs`), and the bulk and surface interpolation errors share one tail.
"""

import numpy as np

from .assembly import (
    FeFunction,
    _element_blocks,
    _integrate,
    bulk_quad_data,
    eval_on_elements,
    gradients_on_elements,
    grams_of,
    nodal_interp_bulk,
    nodal_interp_surface,
    surface_quad_data,
    trace,
    values_on_elements,
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


# cos(2 theta), the boundary field of the surface interpolation errors
SMOOTH_BOUNDARY = SmoothField(
    lambda p: np.cos(2.0 * np.arctan2(p[:, 1], p[:, 0])),
    lambda p: 2.0 * np.sin(2.0 * np.arctan2(p[:, 1], p[:, 0]))[:, None]
    * np.column_stack([p[:, 1], -p[:, 0]]) / (p[:, 0] ** 2 + p[:, 1] ** 2)[:, None],
)


# -- boundary-layer test panels -------------------------------------------------


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
    # vertex nodes are numbered before midside nodes
    picked = order[(order <= mesh.elements[:, :3].max()) != on_midnodes]
    c = np.zeros(mesh.n_nodes)
    c[picked] = 1.0 - 2.0 * (np.arange(len(picked)) % 2)
    return FeFunction(mesh, c)


def form_pairs(mesh):
    """Test pairs of the bulk and of the surface form consistency errors (each
    judged by its max over the panel), from one set of boundary panels; the
    surface pairs are traces and add a smooth field. The bubble is 1 at every
    boundary node and 0 inside."""
    bub = FeFunction(mesh, np.isin(np.arange(mesh.n_nodes), mesh.boundary_node_ids) * 1.0)
    saw = boundary_sawtooth(mesh)
    smooth = nodal_interp_bulk(mesh, SMOOTH_SCALAR_2)
    bulk = [(bub, bub), (saw, bub), (saw, saw)]
    surf = [(smooth, smooth), (saw, bub), (saw, saw), (saw, smooth)]
    if mesh.order == 2:
        sawm = boundary_sawtooth(mesh, on_midnodes=True)
        bulk += [(sawm, saw), (sawm, bub)]
        surf += [(sawm, saw), (sawm, bub), (sawm, smooth)]
    return bulk, [(trace(z), trace(w)) for z, w in surf]


# -- interpolation errors -------------------------------------------------------


def _error_squares(w, measure, err, grad_err):
    """Squared L2 norm and H1 seminorm of an error, as an array (2,), from
    its values (n, m) and gradients (n, m[, 2]) at rule points of weights w
    and measure density (n, m)."""
    l2sq = np.einsum("q,eq,eq->", w, measure, err**2)
    h1semi = np.einsum("q,eq,eq...->...", w, measure, grad_err**2).sum()
    return np.array([l2sq, h1semi])


def _errors(squares):
    """L2 and H1 norms of an error from its `_error_squares`."""
    l2sq, h1semi = squares
    return float(np.sqrt(l2sq)), float(np.sqrt(l2sq + h1semi))


def bulk_interp_errors(mesh, field):
    """L2 and H1 errors of the bulk nodal interpolant of a smooth field,
    summed over element blocks of the mesh's bulk_quad_data."""
    u = nodal_interp_bulk(mesh, field)
    squares = np.zeros(2)
    # values, gradients, points and the field's values and gradients there
    for block in _element_blocks(bulk_quad_data(mesh), 8 * 16):
        vals, grads = eval_on_elements(u, block)
        pts = block["pts"].reshape(-1, 2)
        squares += _error_squares(
            block["rule"].weights, block["det"], vals - field(pts).reshape(vals.shape),
            grads - field.grad(pts).reshape(grads.shape),
        )
    return _errors(squares)


def surface_interp_errors(mesh):
    """L2 and H1 errors of the surface nodal interpolant of SMOOTH_BOUNDARY."""
    sd = surface_quad_data(mesh)
    local = nodal_interp_surface(mesh, SMOOTH_BOUNDARY).coeffs[mesh.surface_faces]
    pts, speed = sd["pts"].reshape(-1, 2), sd["speed"]
    tang = sd["vel"] / speed[..., None]
    dze = np.einsum("fqx,fqx->fq", SMOOTH_BOUNDARY.grad(pts).reshape(tang.shape), tang)
    return _errors(_error_squares(
        sd["rule"].weights, speed,
        np.einsum("qb,fb->fq", sd["psi"], local) - SMOOTH_BOUNDARY(pts).reshape(speed.shape),
        np.einsum("qb,fb->fq", sd["dpsi"], local) / speed - dze,
    ))


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

    fields: FE functions of one mesh whose gradients feed coeff_fn, which
    maps stacked gradient arrays (each (ne, m, 2[, arity])) to the scalar
    integrand. They are evaluated as the components of one vector function,
    so the record's J^{-1} is read once, and the integral is summed over
    element blocks of qd, so coeff_fn sees one block's elements at a time.
    """
    mesh = fields[0].mesh
    qd = qd or bulk_quad_data(mesh)
    cols = [f.coeffs.reshape(len(f.coeffs), -1) for f in fields]
    stacked = FeFunction(mesh, np.hstack(cols))
    split = np.cumsum([c.shape[1] for c in cols])[:-1]
    total = 0.0
    # the block's gradient planes, two per column
    for block in _element_blocks(qd, 16 * stacked.arity):
        grads = np.split(gradients_on_elements(stacked, block), split, axis=-1)
        # each field's columns, shaped like its own `gradients_on_elements`
        grads = [g.reshape(g.shape[:3] + f.coeffs.shape[1:]) for f, g in zip(fields, grads)]
        total += _integrate(block, coeff_fn(*grads))
    return total


def sampled_whalf_inf(u):
    """Sampled W^{1/2,infty}-type seminorm: sup |u(x)-u(y)| / |x-y|^{1/2}.

    Taken over 400 random quadrature-point pairs (seed 0); used only as a
    normalizer in slack-based product-estimate checks.
    """
    pts = bulk_quad_data(u.mesh)["pts"].reshape(-1, 2)
    v = values_on_elements(u).reshape(-1)
    rng = np.random.default_rng(0)
    i = rng.integers(0, len(v), 400)
    j = rng.integers(0, len(v), 400)
    keep = i != j
    i, j = i[keep], j[keep]
    d = np.linalg.norm(pts[i] - pts[j], axis=1)
    return float(np.max(np.abs(v[i] - v[j]) / np.sqrt(d)))
