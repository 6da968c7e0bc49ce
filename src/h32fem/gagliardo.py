"""Brute-force Gagliardo H^{1/2} seminorm on tiny meshes.

The squared seminorm is the double integral over all element pairs of
(u(x) - u(y))^2 / |x - y|^3 (d = 2). Pairs are split into three classes:

* identical elements: inner integral done in reference coordinates with an
  apex-Duffy split around each outer quadrature point (the s-Jacobian of
  the Duffy map cancels the 1/r kernel growth exactly), at 4x the base
  quadrature degree;
* adjacent elements (sharing at least a vertex): plain product rule at 2x
  the base degree (integrand bounded at interior quadrature points);
* disjoint elements: plain product rule at the base degree.

The cost is quadratic in the element count, so meshes are capped at 500
elements. The kernel weights are shared across a whole batch of functions;
values are formed by one BLAS product per element and the pairing keeps
the direct (u(x)-u(y))^2 form, chunked over functions to bound memory, so
constants give exactly zero and scaling is exact to rounding. This oracle
certifies inequalities with slack, not tight values; on the smooth test
panels it sits within a few percent of converged values.
"""

import functools

import numpy as np

from .basis import TRI_EDGES, TRI_VERTS, tri_shape, tri_shape_grad
from .quadrature import default_degree, edge_rule, triangle_rule

MAX_ELEMENTS = 500


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


def _shape_tables(order, ref_pts):
    return tri_shape(order, ref_pts), tri_shape_grad(order, ref_pts)


def _elem_pts_det(coords, phi, dphi):
    pts = phi @ coords
    jac = np.einsum("qbr,bx->qxr", dphi, coords)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    return pts, np.abs(det)


class FeExpression:
    """Pointwise combination of FE functions, exact at quadrature points.

    combine receives one (m,) or (m, arity) value array per input function
    and returns the (m,) values of the expression; products of FE functions
    evaluated this way avoid both reinterpolation error and point location.
    """

    def __init__(self, combine, funcs):
        self.combine = combine
        self.funcs = list(funcs)


class _Evaluator:
    """Values of a function batch at per-element points."""

    def __init__(self, funcs, mesh):
        self.mesh = mesh
        self.entries = []
        for f in funcs:
            if hasattr(f, "coeffs"):
                self.entries.append(("fe", f.coeffs[mesh.elements]))
            elif isinstance(f, FeExpression):
                self.entries.append(
                    ("expr", f.combine, [g.coeffs[mesh.elements] for g in f.funcs])
                )
            else:
                self.entries.append(("fn", f))
        self.n = len(funcs)

    def at(self, phi, elem, pts):
        out = np.empty((self.n, len(pts)))
        for j, ent in enumerate(self.entries):
            if ent[0] == "fe":
                out[j] = phi @ ent[1][elem]
            elif ent[0] == "expr":
                vals = [
                    np.einsum("qb,b...->q...", phi, loc[elem]) for loc in ent[2]
                ]
                out[j] = ent[1](*vals)
            else:
                out[j] = np.asarray(ent[1](pts), dtype=float)
        return out


_CHUNK = 64


def _pair_sum(ve, vf, K):
    """sum_{q,r} (ve[:,q] - vf[:,r])^2 K[q,r], batched over the first axis."""
    out = np.empty(len(ve))
    for lo in range(0, len(ve), _CHUNK):
        hi = lo + _CHUNK
        dv = ve[lo:hi, :, None] - vf[lo:hi, None, :]
        out[lo:hi] = np.einsum("nqr,nqr,qr->n", dv, dv, K, optimize=True)
    return out


def _adjacency(mesh):
    by_node = {}
    for e, conn in enumerate(mesh.elements[:, :3]):
        for v in conn:
            by_node.setdefault(int(v), []).append(e)
    adj = [set() for _ in range(mesh.n_elements)]
    for elems in by_node.values():
        for e in elems:
            adj[e].update(elems)
    for e in range(mesh.n_elements):
        adj[e].discard(e)
    return adj


def gagliardo_seminorms(funcs, mesh, degree=None):
    """Gagliardo H^{1/2} seminorms of several functions in one sweep.

    funcs: FeFunction instances or callables pts -> values. Returns an
    array of seminorms (not squared).
    """
    if mesh.n_elements > MAX_ELEMENTS:
        raise ValueError(
            f"mesh too large for the O(n^2) Gagliardo oracle ({mesh.n_elements} elements)"
        )
    if degree is None:
        degree = default_degree(mesh.order)
    ev = _Evaluator(funcs, mesh)
    adj = _adjacency(mesh)
    ne = mesh.n_elements
    coords = mesh.nodes[mesh.elements]
    total = np.zeros(ev.n)

    # separated pairs: base rule for disjoint, doubled for adjacent
    tabs = {}
    for tag, deg in (("d", degree), ("a", 2 * degree)):
        rule = triangle_rule(deg)
        phi, dphi = _shape_tables(mesh.order, rule.points)
        pts = np.empty((ne, len(rule), 2))
        w = np.empty((ne, len(rule)))
        for e in range(ne):
            pts[e], det = _elem_pts_det(coords[e], phi, dphi)
            w[e] = rule.weights * det
        vals = np.stack([ev.at(phi, e, pts[e]) for e in range(ne)], axis=1)
        tabs[tag] = (pts, w, vals)
    for e in range(ne):
        for f in range(e + 1, ne):
            tag = "a" if f in adj[e] else "d"
            pts, w, vals = tabs[tag]
            diff = pts[e][:, None, :] - pts[f][None, :, :]
            K = (w[e][:, None] * w[f][None, :]) / np.sum(diff**2, axis=-1) ** 1.5
            total += 2.0 * _pair_sum(vals[:, e], vals[:, f], K)

    # identical pairs: apex-Duffy split around each outer point
    xo, wo, inner_ref, inner_jw = _duffy_layout(4 * degree)
    phi_o, dphi_o = _shape_tables(mesh.order, xo)
    flat = inner_ref.reshape(-1, 2)
    phi_i, dphi_i = _shape_tables(mesh.order, flat)
    mo = len(xo)
    for e in range(ne):
        pts_o, det_o = _elem_pts_det(coords[e], phi_o, dphi_o)
        pts_i, det_i = _elem_pts_det(coords[e], phi_i, dphi_i)
        vo = ev.at(phi_o, e, pts_o)                     # (nfun, mo)
        vi = ev.at(phi_i, e, pts_i)                     # (nfun, mo*3mst)
        pi = pts_i.reshape(mo, -1, 2)
        di = det_i.reshape(mo, -1)
        diff = pts_o[:, None, :] - pi
        r3 = np.sum(diff**2, axis=-1) ** 1.5
        K = (wo * det_o)[:, None] * inner_jw * di / r3   # (mo, 3mst)
        vi = vi.reshape(ev.n, mo, -1)
        for q in range(mo):
            dv = vo[:, q, None] - vi[:, q, :]
            total += (dv * dv) @ K[q]
    return np.sqrt(total)


def gagliardo_half_oracle(u, mesh=None, degree=None):
    """Gagliardo H^{1/2} seminorm of one function (no L2 part)."""
    if mesh is None:
        if not hasattr(u, "mesh"):
            raise ValueError("a mesh is required for callable inputs")
        mesh = u.mesh
    return float(gagliardo_seminorms([u], mesh, degree)[0])
