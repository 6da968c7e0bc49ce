"""Brute-force Gagliardo H^{1/2} seminorm on tiny meshes.

The squared seminorm is the double integral over all element pairs of
(u(x) - u(y))^2 / |x - y|^3 (d = 2). Pairs are split into three classes:

* identical elements: inner integral done in reference coordinates with an
  apex-Duffy split around each outer quadrature point (the s-Jacobian of
  the Duffy map cancels the 1/r kernel growth exactly), at 4x the base
  quadrature degree;
* adjacent elements (sharing a vertex, from one element-vertex incidence
  product): plain product rule at 2x the base degree (integrand bounded at
  interior quadrature points);
* disjoint elements: plain product rule at the base degree.

The cost is quadratic in the element count, so meshes are capped at 500
elements. Each class is one pass over geometry blocks (element pairs, or
elements times outer points) and, inside each, function blocks, all sized
from one byte budget, so memory does not grow with the function count. A
function block's values are one BLAS product with the shape table, one
FeExpression.combine call per expression and one call per callable. The
pairing keeps the direct (u(x)-u(y))^2 form, so constants give exactly
zero and scaling is exact to rounding. This oracle certifies inequalities
with slack, not tight values; on the smooth test panels it sits within a
few percent of converged values.
"""

import functools

import numpy as np

from .basis import TRI_EDGES, TRI_VERTS, tri_shape
from .meshing import batched_geometry
from .quadrature import default_degree, edge_rule, triangle_rule

MAX_ELEMENTS = 500
# Bytes of the large arrays one block makes; 1 MiB blocks stay cache-sized.
_BLOCK_BYTES = 1 << 20


@functools.cache
def _duffy_layout(deg):
    """Outer rule plus apex-Duffy inner layout, cached by degree."""
    outer = triangle_rule(deg)
    g = edge_rule(deg)
    s, t = np.meshgrid(g.points, g.points, indexing="ij")
    wst = np.outer(g.weights, g.weights).ravel()
    s, t = s.ravel(), t.ravel()
    xo = outer.points
    refs, jacs = [], []
    for a, b in TRI_EDGES:
        A = TRI_VERTS[a][None, :] - xo
        B = TRI_VERTS[b][None, :] - xo
        e_t = A[:, None, :] * (1.0 - t)[None, :, None] + B[:, None, :] * t[None, :, None]
        refs.append(xo[:, None, :] + s[None, :, None] * e_t)
        cross = A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0]
        jacs.append(np.abs(cross)[:, None] * s[None, :] * wst[None, :])
    inner_ref = np.concatenate(refs, axis=1)           # (mo, 3*mst, 2)
    inner_jw = np.concatenate(jacs, axis=1)            # Duffy jacobian * weights
    return xo, outer.weights, inner_ref, inner_jw


class FeExpression:
    """Pointwise combination of FE functions, exact at quadrature points.

    combine receives one value array per input function, of shape (..., )
    for a scalar input or (..., arity) for a vector one, and returns the
    values of the expression with the same leading shape (...,). It must
    act elementwise along the leading axes, whatever their number: the
    oracle calls it once per block on (elements, points) arrays. Products
    of FE functions evaluated this way avoid both reinterpolation error and
    point location.
    """

    def __init__(self, combine, funcs):
        self.combine = combine
        self.funcs = list(funcs)


def _blocks(n, item_bytes):
    """Slices of range(n) whose items make at most _BLOCK_BYTES together (one at least)."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _values(funcs, mesh, phi, elems, pts):
    """Values (nfun, len(elems), m) of funcs at shared reference points of elems.

    phi is the (m, nb) shape table of the points, pts their (len(elems), m, 2)
    images. Every FE function, direct or an FeExpression input, is evaluated
    once, all in one product with phi.
    """
    leaves = {}
    for f in funcs:
        for g in f.funcs if isinstance(f, FeExpression) else [f]:
            if hasattr(g, "coeffs"):
                leaves.setdefault(id(g), g)
    at = {}
    if leaves:
        coeffs = np.column_stack([g.coeffs for g in leaves.values()]).T   # (ncols, n_nodes)
        local = coeffs[:, mesh.elements[elems]]
        vals = (local.reshape(-1, phi.shape[1]) @ phi.T).reshape(len(coeffs), len(elems), -1)
        lo = 0
        for key, g in leaves.items():
            hi = lo + g.coeffs[0].size
            at[key] = vals[lo] if g.coeffs.ndim == 1 else np.moveaxis(vals[lo:hi], 0, -1)
            lo = hi
    out = np.empty((len(funcs), len(elems), len(phi)))
    for i, f in enumerate(funcs):
        if isinstance(f, FeExpression):
            out[i] = f.combine(*[at[id(g)] for g in f.funcs])
        elif hasattr(f, "coeffs"):
            out[i] = at[id(f)]
        else:
            out[i] = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(out.shape[1:])
    return out


def _class_sum(funcs, mesh, x, y, J):
    """sum_{b,q,j} (u(x_bq) - u(y_bqj))^2 wx_bq wy_bqj / |x_bq - y_bqj|^3 for every u.

    x and y are (phi, elems, pts, w) layouts of the outer and inner points of
    B block entries; an entry's J inner points are shared by its outer
    points, or each outer point has its own J.
    """
    (phi_x, ex, px, wx), (phi_y, ey, py, wy) = x, y
    B = len(px)
    r2 = np.sum((px[:, :, None] - py.reshape(B, -1, J, 2)) ** 2, axis=-1)
    K = (wx[:, :, None] * wy.reshape(B, -1, J) / r2**1.5).ravel()
    out = np.empty(len(funcs))
    for fb in _blocks(len(funcs), 8 * len(K)):
        block = funcs[fb]
        vy = _values(block, mesh, phi_y, ey, py).reshape(len(block), B, -1, J)
        dv = _values(block, mesh, phi_x, ex, px)[..., None] - vy
        dv *= dv
        out[fb] = dv.reshape(len(block), -1) @ K
    return out


def gagliardo_seminorms(funcs, mesh):
    """Gagliardo H^{1/2} seminorms of several functions in one sweep.

    funcs: FeFunction instances, FeExpression instances or callables
    pts -> values. Returns an array of seminorms (not squared).
    """
    ne = mesh.n_elements
    if ne > MAX_ELEMENTS:
        raise ValueError(f"mesh too large for the O(n^2) Gagliardo oracle ({ne} elements)")
    funcs = list(funcs)
    degree = default_degree(mesh.order)
    total = np.zeros(len(funcs))

    # separated pairs e < f, counted twice: base rule if disjoint, doubled if adjacent
    incidence = np.zeros((ne, mesh.n_nodes))
    incidence[np.arange(ne)[:, None], mesh.elements[:, :3]] = 1.0
    first, second = np.triu_indices(ne, k=1)
    adjacent = (incidence @ incidence.T)[first, second] > 0.0
    for sel, deg in ((~adjacent, degree), (adjacent, 2 * degree)):
        rule = triangle_rule(deg)
        phi = tri_shape(mesh.order, rule.points)
        pts, det = batched_geometry(mesh, rule.points)[::2]
        w = rule.weights * np.abs(det)
        pair_e, pair_f = first[sel], second[sel]
        for pb in _blocks(len(pair_e), 16 * len(rule) ** 2):
            e, f = pair_e[pb], pair_f[pb]
            x, y = (phi, e, pts[e], w[e]), (phi, f, pts[f], w[f])
            total += 2.0 * _class_sum(funcs, mesh, x, y, len(rule))

    # identical pairs: apex-Duffy split around each outer point; an item is
    # one element's inner points of one outer point (Jacobians: 32 B each)
    xo, wo, inner_ref, inner_jw = _duffy_layout(4 * degree)
    phi_o = tri_shape(mesh.order, xo)
    J = inner_jw.shape[1]
    for eb in _blocks(ne, 32 * J):
        e = np.arange(ne)[eb]
        for qb in _blocks(len(xo), 32 * len(e) * J):
            refs = inner_ref[qb].reshape(-1, 2)
            po, do = batched_geometry(mesh, xo[qb], e)[::2]
            pi, di = batched_geometry(mesh, refs, e)[::2]
            x = (phi_o[qb], e, po, wo[qb] * np.abs(do))
            y = (tri_shape(mesh.order, refs), e, pi, inner_jw[qb].ravel() * np.abs(di))
            total += _class_sum(funcs, mesh, x, y, J)
    return np.sqrt(total)


def gagliardo_half_oracle(u, mesh=None):
    """Gagliardo H^{1/2} seminorm of one function (no L2 part)."""
    if mesh is None:
        if not hasattr(u, "mesh"):
            raise ValueError("a mesh is required for callable inputs")
        mesh = u.mesh
    return float(gagliardo_seminorms([u], mesh)[0])
