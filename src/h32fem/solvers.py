"""Discrete Dirichlet/Robin solvers and deformed energies.

All systems are symmetric positive definite and are solved by a sparse
direct factorization (deterministic for a fixed matrix). The "continuous"
solution operators are realized on an overkill mesh a fixed number of
uniform refinements finer than the working mesh (`interp.overkill_mesh`);
with two refinements the surrogate error sits an order below every
O(h^{1/2}) and O(h^k) quantity the experiments measure.
"""

import numpy as np
import scipy.sparse as sp

from .assembly import (
    BULK,
    FeFunction,
    _integrate,
    assemble_grams,
    bulk_quad_data,
    gradients_on_elements,
    grams_of,
)
from .meshing import Mesh, _cached, _det_2x2, _spd_solver
from .multilinear import deformation_tensor


def _interior_solver(mesh):
    ids = mesh.interior_node_ids
    return _cached(mesh, "dirichlet_solve", lambda: _spd_solver(grams_of(mesh).A_bulk[np.ix_(ids, ids)]))


def _robin_solver(mesh):
    def build():
        grams, bids, n = grams_of(mesh), mesh.boundary_node_ids, mesh.n_nodes
        Ms = grams.M_surf.tocoo()
        M_gamma = sp.csr_matrix((Ms.data, (bids[Ms.row], bids[Ms.col])), shape=(n, n))
        return _spd_solver(grams.A_bulk + M_gamma)

    return _cached(mesh, "robin_solve", build)


def _dirichlet_solve(mesh, rhs_full, g):
    """u with trace coefficients g and a(u, phi) = rhs_full . phi for interior phi."""
    u = np.zeros(mesh.n_nodes)
    u[mesh.boundary_node_ids] = g
    ids = mesh.interior_node_ids
    rhs = rhs_full[ids] - (grams_of(mesh).A_bulk @ u)[ids]
    u[ids] = _interior_solver(mesh)(rhs)
    return FeFunction(mesh, u, BULK)


def solve_dirichlet_fe(f_h, g_h):
    """Solve a(u, phi) = m(f, phi) for interior phi, with trace(u) = g."""
    mesh = f_h.mesh
    return _dirichlet_solve(mesh, grams_of(mesh).M_bulk @ f_h.coeffs, g_h.coeffs)


def solve_robin_fe(f_h, g_h):
    """Solve a(u, phi) + m_G(u, phi) = m(f, phi) + m_G(g, phi) for all phi."""
    mesh = f_h.mesh
    grams = grams_of(mesh)
    rhs = grams.M_bulk @ f_h.coeffs
    rhs[mesh.boundary_node_ids] += grams.M_surf @ g_h.coeffs
    return FeFunction(mesh, _robin_solver(mesh)(rhs), BULK)


# -- deformed Dirichlet energy ----------------------------------------------


def deformed_dirichlet_energy(e_x, w_h, z_h, method="pullback"):
    """Dirichlet energy after deforming the domain by x -> x + e_x(x).

    'pullback' integrates the deformation-tensor form on the original mesh;
    'remesh' displaces the geometry nodes by the nodal values of e_x,
    reassembles the stiffness form there, and pairs the same coefficient
    vectors. Both equal the energy on the deformed domain up to quadrature.
    """
    mesh = e_x.mesh
    if e_x.arity != 2:
        raise ValueError("deformation field must be a 2-vector FE function")
    if method == "remesh":
        displaced = Mesh(
            nodes=mesh.nodes + e_x.coeffs,
            elements=mesh.elements,
            order=mesh.order,
            domain_kind=mesh.domain_kind,
        )
        g2 = assemble_grams(displaced)
        return float(w_h.coeffs @ (g2.A_bulk @ z_h.coeffs))
    if method != "pullback":
        raise ValueError(f"unknown method {method!r}")
    if _det_2x2(gradients_on_elements(e_x) + np.eye(2)).min() <= 0.0:
        raise RuntimeError("deformation inverts an element at a quadrature point")
    # integrand (B grad w).grad z with B grad w = grad w + (B - I) grad w
    Bgw = gradients_on_elements(w_h) + deformation_field(e_x, w_h)
    return _integrate(bulk_quad_data(mesh), np.einsum("eqx,eqx->eq", Bgw, gradients_on_elements(z_h)))


def deformation_field(e_x, w_h):
    """(B - I) grad w at the rule points, for the pullback matrix B = F^{-T} F^{-1} det(F),
    F = I + A, A[x, c] = d(e_c)/dx_x: the vector field whose gradient pairing
    with z gives the deformed-minus-original Dirichlet energy."""
    T = deformation_tensor(gradients_on_elements(e_x))
    return np.einsum("eqxy,eqy->eqx", T, gradients_on_elements(w_h))
