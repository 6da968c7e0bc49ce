import functools
import tracemalloc

import numpy as np
import pytest

from h32fem import gagliardo
from h32fem.assembly import nodal_interp_bulk
from h32fem.basis import TRI_EDGES, TRI_VERTS, tri_shape, tri_shape_grad
from h32fem.experiments import get_mesh
from h32fem.gagliardo import FeExpression, gagliardo_half_oracle, gagliardo_seminorms
from h32fem.meshing import build_square_mesh
from h32fem.quadrature import default_degree, edge_rule, triangle_rule


@pytest.fixture(scope="module")
def sq3():
    return build_square_mesh(3, 1)


def test_constant_vanishes(sq3):
    u = nodal_interp_bulk(sq3, lambda p: 5.0 * np.ones(len(p)))
    assert gagliardo_half_oracle(u) < 1e-10


def test_homogeneity(sq3):
    u = nodal_interp_bulk(sq3, lambda p: p[:, 0] - 0.3 * p[:, 1] ** 2)
    base = gagliardo_half_oracle(u)
    assert abs(gagliardo_half_oracle(u.scaled(2.5)) - 2.5 * base) < 1e-12 * base


def test_linear_function_reference_value(sq3):
    # |x|_{H^{1/2}} on the unit square; frozen from a degree-12 run of this
    # oracle (1.21889...), mesh-independent since the function is smooth
    u = nodal_interp_bulk(sq3, lambda p: p[:, 0])
    val = gagliardo_half_oracle(u)
    assert abs(val - 1.2189) < 0.01


def test_mesh_invariance_for_smooth_input():
    vals = []
    for n in (2, 4):
        m = build_square_mesh(n, 1)
        vals.append(gagliardo_half_oracle(lambda p: np.sin(p[:, 0]), m))
    assert abs(vals[0] - vals[1]) < 0.02 * vals[0]


def test_batch_matches_single(sq3):
    u = nodal_interp_bulk(sq3, lambda p: p[:, 0] * p[:, 1])
    v = nodal_interp_bulk(sq3, lambda p: np.cos(p[:, 1]))
    batch = gagliardo_seminorms([u, v], sq3)
    assert abs(batch[0] - gagliardo_half_oracle(u)) < 1e-13
    assert abs(batch[1] - gagliardo_half_oracle(v)) < 1e-13


def test_fe_expression_product(sq3):
    # interp(x) reproduces x exactly on a k=1 mesh, so the FE product
    # expression u*u must match the callable x -> x^2 to rounding
    u = nodal_interp_bulk(sq3, lambda p: p[:, 0])
    prod = FeExpression(lambda a, b: a * b, [u, u])
    got = gagliardo_seminorms([prod], sq3)[0]
    direct = gagliardo_half_oracle(lambda p: p[:, 0] ** 2, sq3)
    assert abs(got - direct) < 1e-12 * direct


def test_element_cap():
    m = build_square_mesh(18, 1)  # 648 elements > cap
    with pytest.raises(ValueError):
        gagliardo_half_oracle(lambda p: p[:, 0], m)


def test_callable_requires_mesh():
    with pytest.raises(ValueError):
        gagliardo_half_oracle(lambda p: p[:, 0])


# -- reference: the per-element oracle the blocked one replaced, verbatim ------


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


def _reference_seminorms(funcs, mesh, degree=None):
    """Gagliardo H^{1/2} seminorms of several functions in one sweep.

    funcs: FeFunction instances or callables pts -> values. Returns an
    array of seminorms (not squared).
    """
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


def _mixed_panel(mesh):
    """FE functions, FE expressions (one sharing its inputs with the panel) and callables."""
    u = nodal_interp_bulk(mesh, lambda p: np.sin(2.0 * p[:, 0]) + p[:, 1] ** 2)
    v = nodal_interp_bulk(mesh, lambda p: np.cos(p[:, 1]) * p[:, 0] - 0.5)
    w = nodal_interp_bulk(mesh, lambda p: np.exp(0.5 * p[:, 0] * p[:, 1]))
    return [
        u,
        v,
        FeExpression(lambda a, b: a * b, [u, v]),
        FeExpression(lambda a, b, c: (a + b) * c - a * a, [u, w, v]),
        lambda p: np.exp(p[:, 0]) * p[:, 1],
        lambda p: np.hypot(p[:, 0] - 0.2, p[:, 1]),
    ]


@pytest.mark.parametrize("kind,n,order", [("square", 3, 1), ("disk", 2, 2)])
def test_blocked_oracle_matches_per_element_reference(kind, n, order):
    mesh = get_mesh(kind, n, order)
    funcs = _mixed_panel(mesh)
    got = gagliardo_seminorms(funcs, mesh)
    ref = _reference_seminorms(funcs, mesh)
    assert np.all(ref > 0.0)
    assert np.abs(got / ref - 1.0).max() <= 1e-12


def test_peak_memory_is_bounded_by_block_budget():
    # the per-element oracle held every function's values at all of an
    # element's Duffy points at once (64 x 85,683 doubles here, ~44 MB)
    mesh = build_square_mesh(2, 1)
    us = [nodal_interp_bulk(mesh, lambda p, a=a: np.sin(a * p[:, 0]) + p[:, 1]) for a in range(40)]
    funcs = us + [FeExpression(lambda a, b: a * b, us[i : i + 2]) for i in range(20)]
    funcs += [lambda p, a=a: p[:, 0] ** a for a in range(4)]
    gagliardo_half_oracle(us[0])    # fills the per-degree Duffy layout cache
    tracemalloc.start()
    try:
        gagliardo_seminorms(funcs, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * gagliardo._BLOCK_BYTES
