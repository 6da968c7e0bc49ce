"""FE functions and assembly of the four Gram forms.

Bulk forms are the L2 and Dirichlet pairings over the (possibly curved)
triangulation; surface forms are their analogues on the discrete boundary
curve, with the surface gradient realized as the tangential derivative
along each (curved) boundary face. Surface DOFs are the boundary nodes in
ascending bulk-node order; surface basis functions are traces of the bulk
ones, so trace extraction is pure index gathering.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import (
    TRI_EDGES,
    TRI_VERTS,
    edge_shape,
    edge_shape_deriv,
    tri_edge_ref_points,
    tri_shape,
    tri_shape_grad,
)
from .meshing import _cached, _inverse_2x2, batched_geometry, geometry_map
from .quadrature import default_degree, edge_rule, triangle_rule

BULK = "bulk"
BULK0 = "bulk0"
SURFACE = "surface"


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


def bulk_quad_data(mesh, degree=None):
    """Shared per-mesh data at triangle rule points.

    Returns dict with rule, phi (m, nb), pts (ne, m, 2), det (ne, m) and
    the physical basis gradients as rows, gphys (ne, m, 2, nb):
    gphys[e, q, x] holds d(phi_b)/dx_x of every local basis function b, so
    gradients of element coefficients are one matmul (`_contract`).
    """
    if degree is None:
        degree = default_degree(mesh.order)
    return _cached(mesh, ("bulk", degree), lambda: _bulk_quad_data(mesh, degree))


def _bulk_quad_data(mesh, degree):
    rule = triangle_rule(degree)
    pts, jac, det = batched_geometry(mesh, rule.points)
    if det.min() <= 0.0:
        raise RuntimeError("nonpositive Jacobian during assembly")
    return {
        "rule": rule,
        "phi": tri_shape(mesh.order, rule.points),
        "pts": pts,
        "det": det,
        "gphys": _grad_rows(tri_shape_grad(mesh.order, rule.points), jac),
    }


def _grad_rows(dphi, jac):
    """Physical basis gradients (ne, m, 2, nb) from reference ones dphi (m, nb, 2)
    and the Jacobians jac (ne, m, 2, 2) of the map from the reference cell.

    d(phi_b)/dx_x = sum_r dxi_r/dx_x d(phi_b)/dxi_r: the rows J^{-T} dphi^T.
    """
    inv, _ = _inverse_2x2(jac)
    return np.matmul(inv.swapaxes(-1, -2), dphi.transpose(0, 2, 1))


def _contract(rows, local):
    """rows @ local on every element, as one batched matmul on reshaped views.

    rows: (m, nb) shared by all elements (basis values), or per element
    (ne, *r, nb) (e.g. gradient rows (ne, m, 2, nb)); local: (ne, nb, *t)
    element coefficients. Returns (ne, m, *t) or (ne, *r, *t).
    """
    (ne, nb), t = local.shape[:2], local.shape[2:]
    loc = local.reshape(ne, nb, -1)
    if rows.ndim == 2:
        # one GEMM over all elements and components
        out = (loc.swapaxes(1, 2).reshape(-1, nb) @ rows.T).reshape(ne, -1, len(rows))
        return out.swapaxes(1, 2).reshape((ne, len(rows)) + t)
    return np.matmul(rows.reshape(ne, -1, nb), loc).reshape(rows.shape[:-1] + t)


def surface_quad_data(mesh, degree=None):
    """Per-boundary-face data at edge rule points: curve points, speed, bases."""
    if degree is None:
        degree = default_degree(mesh.order)
    return _cached(mesh, ("surf", degree), lambda: _surface_quad_data(mesh, degree))


def _surface_quad_data(mesh, degree):
    rule = edge_rule(degree)
    psi = edge_shape(mesh.order, rule.points)
    dpsi = edge_shape_deriv(mesh.order, rule.points)
    coords = mesh.nodes[mesh.boundary_faces]          # (nf, nbe, 2)
    pts = np.einsum("qb,fbx->fqx", psi, coords)
    vel = np.einsum("qb,fbx->fqx", dpsi, coords)      # curve velocity
    speed = np.linalg.norm(vel, axis=-1)
    return {"rule": rule, "psi": psi, "dpsi": dpsi, "pts": pts, "vel": vel, "speed": speed}


# -- Gram matrices ----------------------------------------------------------


@dataclass
class GramSet:
    """Assembled bilinear forms plus the DOF bookkeeping between them."""

    mesh: object
    M_bulk: sp.csr_matrix
    A_bulk: sp.csr_matrix
    M_surf: sp.csr_matrix
    A_surf: sp.csr_matrix
    interior_ids: np.ndarray
    boundary_ids: np.ndarray
    # upper bounds on the largest eigenvalue of (M + A, M), bulk and surface
    bulk_eig_bound: float
    surf_eig_bound: float


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


def grams_of(mesh):
    """The default-degree GramSet of a mesh, assembled once and cached."""
    return _cached(mesh, "grams", lambda: assemble_grams(mesh))


def assemble_grams(mesh):
    qd = bulk_quad_data(mesh)
    w, phi, det = qd["rule"].weights, qd["phi"], qd["det"]
    nb = phi.shape[1]
    Me = det @ (w[:, None, None] * phi[:, :, None] * phi[:, None, :]).reshape(len(w), -1)
    Me = Me.reshape(-1, nb, nb)
    G = qd["gphys"].reshape(len(det), -1, nb)  # rows (point, direction)
    wdet = np.repeat(w * det, 2, axis=1)[:, :, None]
    Ae = _contract(G.swapaxes(1, 2), wdet * G)
    M = _scatter(Me, mesh.elements, mesh.n_nodes)
    A = _scatter(Ae, mesh.elements, mesh.n_nodes)

    sd = surface_quad_data(mesh)
    ws, psi, dpsi, speed = sd["rule"].weights, sd["psi"], sd["dpsi"], sd["speed"]
    Mse = np.einsum("q,qi,qj,fq->fij", ws, psi, psi, speed)
    # tangential derivative: psi'(t)/|c'(t)|, measure |c'(t)| dt
    Ase = np.einsum("q,qi,qj,fq->fij", ws, dpsi, dpsi, 1.0 / speed)
    bids = mesh.boundary_node_ids
    Ms = _scatter(Mse, mesh.surface_faces, len(bids))
    As = _scatter(Ase, mesh.surface_faces, len(bids))

    return GramSet(
        mesh=mesh,
        M_bulk=M,
        A_bulk=A,
        M_surf=Ms,
        A_surf=As,
        interior_ids=mesh.interior_node_ids,
        boundary_ids=bids,
        bulk_eig_bound=_eig_bound(Me, Ae),
        surf_eig_bound=_eig_bound(Mse, Ase),
    )


# -- evaluation and interpolation -------------------------------------------


def eval_fe(u, elem, ref_pt):
    """Value and physical gradient of a bulk FE function at reference points."""
    if u.space == SURFACE:
        raise ValueError("eval_fe expects a bulk function")
    mesh = u.mesh
    ref = np.atleast_2d(ref_pt)
    phi = tri_shape(mesh.order, ref)
    dphi = tri_shape_grad(mesh.order, ref)
    _, jac = geometry_map(mesh, elem, ref)
    local = u.coeffs[mesh.elements[elem]][None]
    val = _contract(phi, local)[0]
    grad = _contract(_grad_rows(dphi, jac[None]), local)[0]
    if np.ndim(ref_pt) == 1:
        return val[0], grad[0]
    return val, grad


def eval_on_elements(u):
    """Values and gradients of a bulk FE function at all assembly rule points.

    Returns (values, grads) with shapes (ne, m[, arity]) and (ne, m, 2[, arity]).
    """
    qd = bulk_quad_data(u.mesh)
    local = u.coeffs[u.mesh.elements]  # (ne, nb[, arity])
    return _contract(qd["phi"], local), _contract(qd["gphys"], local)


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


# -- boundary-restricted quadrature (independent of the S_h assembly path) --


def integrate_bulk_on_boundary(u):
    """Integral of u^2 over the boundary, evaluated through the bulk basis.

    Goes through each boundary face's parent element and the bulk geometry
    map restricted to that edge, so it shares no code with the surface
    assembly (same rule degree, so the two quadratures of the same curved
    integrand must agree to rounding).
    """
    mesh = u.mesh
    rule = edge_rule(default_degree(mesh.order))
    total = 0.0
    for f in range(len(mesh.boundary_faces)):
        e = mesh.face_elem[f]
        le = mesh.face_local_edge[f]
        ref = tri_edge_ref_points(le, rule.points)
        vals, _ = eval_fe(u, e, ref)
        # curve speed from the bulk geometry map along the edge
        coords = mesh.nodes[mesh.elements[e]]
        dphi = tri_shape_grad(mesh.order, ref)
        jac = np.einsum("qbr,bx->qxr", dphi, coords)
        a, b = TRI_EDGES[le]
        tangent_ref = TRI_VERTS[b] - TRI_VERTS[a]
        vel = np.einsum("qxr,r->qx", jac, tangent_ref)
        speed = np.linalg.norm(vel, axis=-1)
        total += float(np.sum(rule.weights * vals**2 * speed))
    return total
