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
elements times outer points), all sized from one byte budget
(`assembly._BLOCK_BYTES`, shared with the element blocks there). Two
mechanisms share these blocks, their rules and their kernel weights:

* `gagliardo_gram` assembles, per (mesh, Lagrange order), the matrix G
  with |u|^2 = c^T G c for every coefficient vector c. Each block adds
  sum W d d^T over its point pairs, with d = phi(x) - phi(y) the basis
  differences: for separated pairs the DOFs the two elements share are
  merged before d is formed, and for identical pairs d depends only on
  the Duffy reference points, so a block is one GEMM W @ (d x d). The
  difference form keeps the large, cancelling near-singular products out
  of G. G is symmetric positive semidefinite with constants in its kernel.
  It is cached on the mesh per order, read-only, and shared by its two
  consumers, `product_sampled` and `leibniz_half`, through the P3 space
  over their P1 square: a product of up to three P1 functions is a
  continuous piecewise cubic on affine elements, so their products are
  formed nodally and every seminorm they take is a form in one 100 x 100 G.
* `gagliardo_seminorms` is the direct pass, the tests' reference for G and
  the oracle for pointwise inputs (FeExpressions of FE functions,
  callables, FE functions). Each geometry block forms its kernel once
  and then takes the inputs one at a time, so memory does not grow with
  their count. FE values come from `assembly._contract` with the shape
  table (the shared-rows GEMM that also gives `values_on_elements` its
  values), an FeExpression's from one `combine` call on its leaves' and a
  callable's from one call on the block's points; the pairing keeps the
  (u(x)-u(y))^2 form, so constants give exactly zero and scaling is exact
  to rounding.

Both certify inequalities with slack, not tight values; on the smooth test
panels they sit within a few percent of converged values.
"""

import functools

import numpy as np

from .assembly import _blocks, _contract
from .basis import TRI_EDGES, TRI_VERTS, tri_shape
from .meshing import _cached, batched_geometry, dof_map
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


def _check_size(mesh):
    """Refuse meshes over MAX_ELEMENTS, before anything mesh-sized is allocated."""
    if mesh.n_elements > MAX_ELEMENTS:
        raise ValueError(
            f"mesh too large for the O(n^2) Gagliardo oracle ({mesh.n_elements} elements)"
        )


def _pair_blocks(mesh, order, pair_bytes, self_bytes, ref_bytes=0):
    """Blocks of the three pair classes as (x, y, J, same).

    x and y are (phi, elems, pts, w) layouts of the outer and inner points
    of a block's entries, with phi the order-`order` shape table of the
    reference points; same marks identical pairs (entries are elements,
    each outer point with its own J inner points), otherwise the entries
    are element pairs e < f whose J inner points are shared by the outer
    points. pair_bytes is the cost of one point pair of a separated block,
    self_bytes that of one element's point pair of an identical block and
    ref_bytes that of one reference point pair of an identical block.
    """
    ne = mesh.n_elements
    degree = default_degree(mesh.order)

    # separated pairs: base rule if disjoint, doubled if adjacent
    incidence = np.zeros((ne, mesh.n_nodes))
    incidence[np.arange(ne)[:, None], mesh.elements[:, :3]] = 1.0
    first, second = np.triu_indices(ne, k=1)
    adjacent = (incidence @ incidence.T)[first, second] > 0.0
    for sel, deg in ((~adjacent, degree), (adjacent, 2 * degree)):
        rule = triangle_rule(deg)
        phi = tri_shape(order, rule.points)
        pts, det = batched_geometry(mesh, rule.points)[::2]
        w = rule.weights * np.abs(det)
        pair_e, pair_f = first[sel], second[sel]
        for pb in _blocks(len(pair_e), pair_bytes * len(rule) ** 2):
            e, f = pair_e[pb], pair_f[pb]
            yield (phi, e, pts[e], w[e]), (phi, f, pts[f], w[f]), len(rule), False

    # identical pairs: apex-Duffy split around each outer point; an item is
    # one element's inner points of one outer point
    xo, wo, inner_ref, inner_jw = _duffy_layout(4 * degree)
    phi_o = tri_shape(order, xo)
    J = inner_jw.shape[1]
    for eb in _blocks(ne, self_bytes * J):
        e = np.arange(ne)[eb]
        for qb in _blocks(len(xo), (self_bytes * len(e) + ref_bytes) * J):
            refs = inner_ref[qb].reshape(-1, 2)
            po, do = batched_geometry(mesh, xo[qb], e)[::2]
            pi, di = batched_geometry(mesh, refs, e)[::2]
            x = (phi_o[qb], e, po, wo[qb] * np.abs(do))
            y = (tri_shape(order, refs), e, pi, inner_jw[qb].ravel() * np.abs(di))
            yield x, y, J, True


def _kernel(x, y, J):
    """wx_bq wy_bqj / |x_bq - y_bqj|^3 of a block's B entries: (B, mx, J)."""
    (_, _, px, wx), (_, _, py, wy) = x, y
    B = len(px)
    r2 = np.sum((px[:, :, None] - py.reshape(B, -1, J, 2)) ** 2, axis=-1)
    return wx[:, :, None] * wy.reshape(B, -1, J) / r2**1.5


def _values(f, mesh, phi, elems, pts):
    """Values (len(elems), m) of f at shared reference points of elems.

    phi is the (m, nb) shape table of the points, pts their (len(elems), m, 2)
    images. FE functions (f, or its leaves) go through `assembly._contract`,
    and one of another mesh is refused; a vector f raises ValueError.
    """
    def fe(g):
        if g.mesh is not mesh:
            raise ValueError("an FE input lives on another mesh")
        return _contract(phi, g.coeffs[mesh.elements[elems]])

    if isinstance(f, FeExpression):
        vals = f.combine(*map(fe, f.funcs))
    else:
        vals = fe(f) if hasattr(f, "coeffs") else f(pts.reshape(-1, 2))
    return np.asarray(vals, dtype=float).reshape(len(elems), len(phi))


def _class_sum(funcs, mesh, x, y, J):
    """sum_{b,q,j} (u(x_bq) - u(y_bqj))^2 K_bqj over a block, for every u."""
    K = _kernel(x, y, J)

    def pair_sum(f):
        # one input's arrays, freed before the next input's are formed
        dv = _values(f, mesh, *x[:3])[..., None] - _values(f, mesh, *y[:3]).reshape(len(K), -1, J)
        dv *= dv
        return np.vdot(dv, K)

    return np.array([pair_sum(f) for f in funcs])


def gagliardo_seminorms(funcs, mesh):
    """Gagliardo H^{1/2} seminorms of several functions in one sweep.

    funcs: FeFunction instances of `mesh`, FeExpression instances of them or
    callables pts -> values. Returns an array of seminorms (not squared).
    """
    _check_size(mesh)
    funcs = list(funcs)
    total = np.zeros(len(funcs))
    # separated pairs e < f are counted twice
    for x, y, J, same in _pair_blocks(mesh, mesh.order, 16, 32):
        total += (1.0 if same else 2.0) * _class_sum(funcs, mesh, x, y, J)
    return np.sqrt(total)


def gagliardo_gram(mesh, order):
    """Dense Gram matrix G of the squared seminorm: |u|^2 = c^T G c.

    c is the coefficient vector of u in the order-`order` Lagrange space on
    the triangulation of `mesh`, numbered by `meshing.dof_map`. The pairs,
    rules and geometry are those of `gagliardo_seminorms(., mesh)`. G is
    cached on `mesh` per order and returned read-only.
    """
    return _cached(mesh, ("gagliardo_gram", order), lambda: _assemble_gram(mesh, order))


def _assemble_gram(mesh, order):
    """The uncached G of `gagliardo_gram`."""
    _check_size(mesh)
    dofs = dof_map(mesh, order)
    nb = dofs.shape[1]
    G = np.zeros((dofs.max() + 1,) * 2)
    own = np.zeros((mesh.n_elements, nb, nb))
    # separated: merged d, its K-weighted copy, kernel, distance (per point pair);
    # identical: d and d x d per reference point pair
    for x, y, J, same in _pair_blocks(mesh, order, 8 * (4 * nb + 4), 32, 8 * nb * (nb + 1)):
        (phi_x, ex, _, _), (phi_y, ey, _, _) = x, y
        K = _kernel(x, y, J).reshape(len(ex), -1)
        if same:
            d = (phi_x[:, None, :] - phi_y.reshape(len(phi_x), J, nb)).reshape(-1, nb)
            own[ex] += (K @ (d[:, :, None] * d[:, None, :]).reshape(-1, nb * nb)).reshape(-1, nb, nb)
            continue
        # basis differences over the 2nb local slots (e's DOFs, then f's);
        # f's DOFs shared with e are merged into e's slot before d is formed
        Q = len(phi_x)
        py = np.tile(phi_y, (Q, 1))                                         # (Q*Q, nb)
        shared = (dofs[ey][:, :, None] == dofs[ex][:, None, :]).astype(float)  # (B, f, e)
        d = np.concatenate(
            [np.repeat(phi_x, Q, axis=0) - py @ shared, -py * (1.0 - shared.sum(-1))[:, None]],
            axis=2,
        )                                                                   # (B, Q*Q, 2nb)
        local = 2.0 * np.swapaxes(d * K[:, :, None], 1, 2) @ d
        loc = np.concatenate([dofs[ex], dofs[ey]], axis=1)
        np.add.at(G, (loc[:, :, None], loc[:, None, :]), local)
    np.add.at(G, (dofs[:, :, None], dofs[:, None, :]), own)
    G = 0.5 * (G + G.T)
    G.flags.writeable = False
    return G

