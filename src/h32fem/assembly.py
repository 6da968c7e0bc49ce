"""FE functions and assembly of the four Gram forms.

Bulk forms are the L2 and Dirichlet pairings over the (possibly curved)
triangulation; surface forms are their analogues on the discrete boundary
curve, with the surface gradient realized as the tangential derivative
along each (curved) boundary face. Surface DOFs are the boundary nodes in
ascending bulk-node order; surface basis functions are traces of the bulk
ones, so trace extraction is pure index gathering. The bulk quadrature
records, plain and lifted, share one format (rule, reference basis values
and gradients, points, det J, J^{-1}), which only this module reads: it
applies J^{-T} to the shared reference gradients (Kronbichler & Kormann,
Comput. Fluids 63, 2012). Whole-mesh work at rule points runs in element
blocks of a record (`_element_blocks`), sized from one byte budget
(`_BLOCK_BYTES`), so its transients do not grow with the mesh.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import (
    TRI_TANGENTS,
    edge_shape,
    edge_shape_deriv,
    tri_edge_ref_points,
    tri_shape,
    tri_shape_grad,
)
from .lifting import lift_mixed, lift_of
from .meshing import _cached, _inverse_2x2, batched_geometry, geometry_map
from .quadrature import default_degree, edge_rule, triangle_rule

BULK = "bulk"
BULK0 = "bulk0"
SURFACE = "surface"
# Bytes of the large arrays one block makes; 1 MiB blocks stay cache-sized.
_BLOCK_BYTES = 1 << 20
# Bytes per rule point of the element matrices' work on a block: the
# metric, its products and the element matrices and their positions.
_ELEMENT_POINT_BYTES = 8 * 16


@dataclass
class FeFunction:
    """Coefficient vector over a nodal Lagrange basis.

    coeffs has shape (n,) for scalars or (n, 2) for 2-vector fields, with n
    the bulk node count (bulk spaces) or the boundary node count (surface).
    """

    mesh: object
    coeffs: np.ndarray
    space: str = BULK

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        n = len(self.mesh.boundary_node_ids) if self.space == SURFACE else self.mesh.n_nodes
        if self.coeffs.shape[0] != n:
            raise ValueError(
                f"coefficient length {self.coeffs.shape[0]} does not match space {self.space} ({n})"
            )
        if self.space == BULK0:
            bdry = self.coeffs[self.mesh.boundary_node_ids]
            if np.any(bdry != 0.0):
                raise ValueError("bulk0 function has nonzero boundary coefficients")

    @property
    def arity(self):
        return 1 if self.coeffs.ndim == 1 else self.coeffs.shape[1]

    def scaled(self, alpha):
        return FeFunction(self.mesh, alpha * self.coeffs, self.space)


def zero_function(mesh, space=BULK):
    n = len(mesh.boundary_node_ids) if space == SURFACE else mesh.n_nodes
    return FeFunction(mesh, np.zeros(n), space)


# -- quadrature-point caches ------------------------------------------------


def bulk_quad_data(mesh, degree=None, lifted=False):
    """Shared per-mesh data at triangle rule points, of the mesh's elements or,
    lifted, of their lifts onto the exact domain (`lifting.lift_of(mesh)`);
    cached per mesh and degree.

    Both records are a dict of the rule, the reference basis values phi
    (m, nb) and gradients dphi (m, nb, 2), and the geometry at the rule
    points: pts (ne, m, 2), det (ne, m) and the inverse Jacobians jinv
    (ne, m, 2, 2), jinv[e, q, r, x] = d(xi_r)/d(x_x). Physical gradients
    are never stored: each reader applies J^{-T} to the shared reference
    ones. The lift moves the boundary layer `lift_of(mesh).boundary_elements()`
    only, so the lifted record is the plain arrays copied with that layer's
    rows lifted. Every mesh passes through here before anything is
    integrated on it: an inverted element is refused.
    """
    if degree is None:
        degree = default_degree(mesh.order)
    return _cached(mesh, ("bulk", degree, lifted), lambda: _bulk_quad_data(mesh, degree, lifted))


def _integrate(qd, vals):
    """Integral of vals (ne, m), given at the rule points of the bulk record
    qd (or of one of its element blocks)."""
    return float(np.einsum("q,eq,eq->", qd["rule"].weights, qd["det"], vals))


def _blocks(n, item_bytes):
    """Slices of range(n) whose items make at most _BLOCK_BYTES together (one at least)."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _element_blocks(qd, point_bytes):
    """The bulk record qd in element blocks of at most _BLOCK_BYTES, at
    point_bytes per rule point. Each block is a record that every reader of
    qd takes as it takes qd: the rule and reference tables shared, views of
    the block's rows of pts, det and jinv, and its elements as the slice
    "elems" of the mesh's element ids."""
    ne, m = qd["det"].shape
    for b in _blocks(ne, point_bytes * m):
        yield {**qd, "elems": b, "pts": qd["pts"][b], "det": qd["det"][b], "jinv": qd["jinv"][b]}


def _element_nodes(u, qd):
    """The node table of u's mesh on the elements of the record qd."""
    return u.mesh.elements[qd.get("elems", slice(None))]


def _bulk_quad_data(mesh, degree, lifted):
    rule = triangle_rule(degree)
    if lifted:
        bl = lift_of(mesh).boundary_elements()
        pts, jac, det = lift_of(mesh).geometry(rule.points, bl)
    else:
        pts, jac, det = batched_geometry(mesh, rule.points)
    if (det <= 0.0).any():
        raise RuntimeError("nonpositive Jacobian during assembly")
    # stored as component planes: jinv[..., r, x] is one contiguous (ne, m) array
    jinv = np.moveaxis(np.moveaxis(_inverse_2x2(jac)[0], (2, 3), (0, 1)).copy(), (0, 1), (2, 3))
    if not lifted:
        return {"rule": rule, "phi": tri_shape(mesh.order, rule.points),
                "dphi": tri_shape_grad(mesh.order, rule.points), "pts": pts, "det": det, "jinv": jinv}
    # off the boundary layer the lift is the identity: the plain rows
    plain = bulk_quad_data(mesh, degree)
    full = {key: np.copy(plain[key]) for key in ("pts", "det", "jinv")}  # np.copy keeps the planes
    full["pts"][bl], full["det"][bl], full["jinv"][bl] = pts, det, jinv
    return {**plain, **full}


def _contract(rows, local):
    """rows (r, nb), shared by all elements (e.g. basis values), times the
    element coefficients local (ne, nb, *t): (ne, r, *t), one GEMM on views."""
    (ne, nb), t = local.shape[:2], local.shape[2:]
    loc = local.reshape(ne, nb, -1)
    out = (loc.swapaxes(1, 2).reshape(-1, nb) @ rows.T).reshape(ne, -1, len(rows))
    return out.swapaxes(1, 2).reshape((ne, len(rows)) + t)


def surface_quad_data(mesh, degree=None, lifted=False):
    """Per-boundary-face data at edge rule points: curve points, velocity,
    speed, bases. The curve is the geometry map (lifted: `lifting.lift_mixed`)
    at the faces' edge points; each record is cached like bulk_quad_data."""
    if degree is None:
        degree = default_degree(mesh.order)
    return _cached(mesh, ("surf", degree, lifted), lambda: _surface_quad_data(mesh, degree, lifted))


def _surface_quad_data(mesh, degree, lifted):
    rule = edge_rule(degree)
    nf, m = len(mesh.face_elem), len(rule.points)
    # the faces' edge points as (element, reference point) pairs
    edges = np.repeat(mesh.face_local_edge, m)
    refs = tri_edge_ref_points(edges, np.tile(rule.points, nf))
    pts, jac = (lift_mixed if lifted else geometry_map)(mesh, np.repeat(mesh.face_elem, m), refs)
    vel = np.einsum("nxr,nr->nx", jac, TRI_TANGENTS[edges]).reshape(nf, m, 2)  # curve velocity
    pts = pts.reshape(nf, m, 2)
    speed = np.linalg.norm(vel, axis=-1)
    psi = edge_shape(mesh.order, rule.points)
    dpsi = edge_shape_deriv(mesh.order, rule.points)
    return {"rule": rule, "psi": psi, "dpsi": dpsi, "pts": pts, "vel": vel, "speed": speed}


# -- Gram matrices ----------------------------------------------------------


@dataclass
class GramSet:
    """Assembled bilinear forms of a mesh; its DOF sets are the mesh's own."""

    mesh: object
    M_bulk: sp.csr_matrix
    A_bulk: sp.csr_matrix
    M_surf: sp.csr_matrix
    A_surf: sp.csr_matrix


def eig_bound(mesh, surface=False):
    """An upper bound on the largest eigenvalue of the pencil (M + A, M) of
    the mesh's bulk forms, or surface forms, on every DOF subset
    (`_eig_bound`), cached on the mesh. Only an operator reads it, so it is
    computed apart from `assemble_grams`, from the same element matrices,
    the bulk ones block by block."""
    def build():
        if surface:
            return _eig_bound(*_surface_elements(surface_quad_data(mesh)))
        blocks = _element_blocks(bulk_quad_data(mesh), _ELEMENT_POINT_BYTES)
        return max(_eig_bound(*_bulk_elements(block)) for block in blocks)

    return _cached(mesh, ("eig_bound", surface), build)


def _eig_bound(Me, Ae):
    """max over elements of lambda_max(M_e + A_e, M_e).

    The Rayleigh quotient of the assembled pencil is a ratio of sums of
    element quotients, so this bounds its largest eigenvalue (Wathen 1987),
    on every DOF subset too. Each M_e is SPD (positive-weight rules with
    enough points), so lambda(M_e + A_e, M_e) = 1 + eig(L^-1 A_e L^-T).
    """
    L = np.linalg.cholesky(Me)
    X = np.linalg.solve(L, Ae)
    S = np.linalg.solve(L, np.swapaxes(X, 1, 2))
    return 1.0 + float(np.linalg.eigvalsh(S).max())


def _scatter(ne_mats, conn, n):
    rows, cols = np.broadcast_arrays(conn[:, :, None], conn[:, None, :])
    return sp.coo_matrix((ne_mats.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()


def grams_of(mesh, lifted=False):
    """The default-degree GramSet of a mesh, or lifted the forms of the lifted
    basis on the exact domain (`lifting.lift_of(mesh)`); each assembled once
    and cached."""
    return _cached(mesh, ("grams", lifted), lambda: assemble_grams(mesh, lifted))


def assemble_grams(mesh, lifted=False):
    """The four Gram forms from bulk_quad_data/surface_quad_data (lifted, if asked)."""
    M_bulk, A_bulk = _bulk_forms(mesh, bulk_quad_data(mesh, lifted=lifted))
    Mse, Ase = _surface_elements(surface_quad_data(mesh, lifted=lifted))
    bids = mesh.boundary_node_ids
    return GramSet(
        mesh=mesh,
        M_bulk=M_bulk,
        A_bulk=A_bulk,
        M_surf=_scatter(Mse, mesh.surface_faces, len(bids)),
        A_surf=_scatter(Ase, mesh.surface_faces, len(bids)),
    )


def _bulk_forms(mesh, qd):
    """The bulk mass and stiffness matrices of the record qd, CSR on their one
    pattern: the node pairs that share an element, the pattern of B^T B for
    the element-node incidence B. The element matrices of each element
    block (`_bulk_elements`) are added at their entries' positions in it,
    so no whole-mesh element matrices or triplets are formed."""
    conn, n = mesh.elements, mesh.n_nodes
    B = sp.csr_matrix((np.ones(conn.size), conn.ravel(), np.arange(0, conn.size + 1, conn.shape[1])),
                      shape=(len(conn), n))
    pattern = sp.csr_matrix(B.T @ B)
    pattern.sort_indices()
    indptr, indices = pattern.indptr, pattern.indices
    del B, pattern
    # entry (r, c) has the key r n + c; in CSR order the keys ascend
    keys = np.repeat(np.arange(n), np.diff(indptr)) * n + indices
    data = np.zeros((2, len(keys)))
    for block in _element_blocks(qd, _ELEMENT_POINT_BYTES):
        e = conn[block["elems"]]
        at = np.searchsorted(keys, (e[:, :, None] * n + e[:, None, :]).ravel())
        for values, mats in zip(data, _bulk_elements(block)):
            np.add.at(values, at, mats.ravel())
    return [sp.csr_matrix((values, indices, indptr), shape=(n, n)) for values in data]


def _bulk_elements(qd):
    """The element mass and stiffness matrices (ne, nb, nb) of the bulk record
    qd: each one GEMM of per-point weights against a table of basis products,
    w det for the mass and the metric w det J^{-1} J^{-T} for the stiffness."""
    w, phi, dphi, det = qd["rule"].weights, qd["phi"], qd["dphi"], qd["det"]
    (m, nb), wdet = phi.shape, w * det
    Me = det @ (w[:, None, None] * phi[:, :, None] * phi[:, None, :]).reshape(m, -1)
    j00, j01, j10, j11 = (qd["jinv"][..., r, x] for r in (0, 1) for x in (0, 1))
    g01 = wdet * (j00 * j10 + j01 * j11)
    metric = np.stack([wdet * (j00 * j00 + j01 * j01), g01, g01, wdet * (j10 * j10 + j11 * j11)], axis=-1)
    # table[(q, r, s), (i, j)] = d(phi_i)/d(xi_r) d(phi_j)/d(xi_s) at point q
    table = np.einsum("qir,qjs->qrsij", dphi, dphi)
    Ae = metric.reshape(len(det), -1) @ table.reshape(4 * m, nb * nb)
    return Me.reshape(-1, nb, nb), Ae.reshape(-1, nb, nb)


def _surface_elements(sd):
    """The face mass and stiffness matrices (nf, ns, ns) of the surface record sd."""
    ws, psi, dpsi, speed = sd["rule"].weights, sd["psi"], sd["dpsi"], sd["speed"]
    Mse = np.einsum("q,qi,qj,fq->fij", ws, psi, psi, speed)
    # tangential derivative: psi'(t)/|c'(t)|, measure |c'(t)| dt
    Ase = np.einsum("q,qi,qj,fq->fij", ws, dpsi, dpsi, 1.0 / speed)
    return Mse, Ase


# -- evaluation and interpolation -------------------------------------------


def values_on_elements(u, qd=None):
    """Values (ne, m[, arity]) of a bulk FE function at the points of a
    quadrature record or of one of its element blocks (by default the mesh's
    bulk_quad_data; with the lifted record, of the lift u o Lambda^{-1} at
    the lifted points)."""
    qd = qd or bulk_quad_data(u.mesh)
    return _contract(qd["phi"], u.coeffs[_element_nodes(u, qd)])


def gradients_on_elements(u, qd=None):
    """Gradients (ne, m, 2[, arity]) of a bulk FE function at the points of a
    quadrature record or of one of its element blocks, by default the mesh's
    bulk_quad_data: a view on their component planes, grads[..., x, c]
    contiguous."""
    qd = qd or bulk_quad_data(u.mesh)
    jinv, dphi = qd["jinv"], qd["dphi"]
    # the element coefficients of each component c: comps[c] (ne, nb)
    comps = u.coeffs.reshape(len(u.coeffs), -1).T.take(_element_nodes(u, qd), axis=1)
    # reference gradients of each component c: planes[r, c] = d(u_c)/d(xi_r)
    planes = comps @ np.ascontiguousarray(dphi.transpose(2, 1, 0))[:, None]
    # J^{-T} in place, planes[x] = sum_r d(xi_r)/d(x_x) planes[r], one
    # component at a time, so the temporaries are two (ne, m) planes
    for g0, g1 in planes.swapaxes(0, 1):
        a, b = jinv[..., 1, 0] * g1, jinv[..., 0, 1] * g0
        g0 *= jinv[..., 0, 0]
        g0 += a
        g1 *= jinv[..., 1, 1]
        g1 += b
    grads = np.moveaxis(planes, (0, 1), (2, 3))
    return grads.reshape(grads.shape[:3] + u.coeffs.shape[1:])


def eval_on_elements(u, qd=None):
    """Values and gradients of a bulk FE function at the points of a
    quadrature record: (`values_on_elements`, `gradients_on_elements`)."""
    return values_on_elements(u, qd), gradients_on_elements(u, qd)


def gradient_pairing_load(zq, mesh):
    """Load vector b_j = integral z . grad(phi_j) over the bulk mesh, from the
    field's values zq (ne, m, 2) at the rule points of bulk_quad_data(mesh):
    z . J^{-T} dphi_j = (J^{-1} z) . dphi_j, one GEMM on the reference gradients."""
    qd = bulk_quad_data(mesh)
    jinv, dphi = qd["jinv"], qd["dphi"]
    z0, z1 = (qd["rule"].weights * qd["det"] * zq[..., x] for x in (0, 1))
    y = np.stack([jinv[..., r, 0] * z0 + jinv[..., r, 1] * z1 for r in (0, 1)], axis=1)  # (ne, 2, m)
    loc = y.reshape(len(y), -1) @ dphi.transpose(2, 0, 1).reshape(-1, dphi.shape[1])
    return np.bincount(mesh.elements.ravel(), loc.ravel(), minlength=mesh.n_nodes)


def nodal_interp_bulk(mesh, v):
    """Nodal interpolant: coefficients are v at the physical node positions."""
    return FeFunction(mesh, _eval_pointwise(v, mesh.nodes), BULK)


def nodal_interp_surface(mesh, v):
    return FeFunction(mesh, _eval_pointwise(v, mesh.nodes[mesh.boundary_node_ids]), SURFACE)


def _eval_pointwise(v, pts):
    """v called once on all (n, 2) points; it must return (n,) or (n, d) values."""
    vals = np.asarray(v(pts), dtype=float)
    if vals.ndim not in (1, 2) or len(vals) != len(pts):
        raise ValueError(f"field returned values of shape {vals.shape} for {len(pts)} points")
    return vals


def trace(u):
    """Surface function whose coefficients are u at the boundary nodes."""
    if u.space == SURFACE:
        raise ValueError("trace expects a bulk function")
    return FeFunction(u.mesh, u.coeffs[u.mesh.boundary_node_ids], SURFACE)
