"""Discrete Dirichlet/Robin solvers, overkill meshes, deformed energies.

All systems are symmetric positive definite and are solved by a sparse
direct factorization (deterministic for a fixed matrix). The "continuous"
solution operators are realized on an overkill mesh a fixed number of
uniform refinements finer than the working mesh; with two refinements the
surrogate error sits an order below every O(h^{1/2}) and O(h^k) quantity
the experiments measure.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (
    BULK,
    FeFunction,
    assemble_grams,
    bulk_quad_data,
    eval_on_elements,
)
from .meshing import Mesh, _cached, _inverse_2x2, _spd_solver, shared_mesh
from .multilinear import deformation_tensor


def trace_matrix(grams):
    """Sparse selector mapping bulk coefficients to surface coefficients."""
    nb = len(grams.boundary_ids)
    return sp.coo_matrix(
        (np.ones(nb), (np.arange(nb), grams.boundary_ids)),
        shape=(nb, grams.mesh.n_nodes),
    ).tocsr()


def _interior_solver(grams):
    ids = grams.interior_ids
    return _cached(grams, "dirichlet_solve", lambda: _spd_solver(grams.A_bulk[np.ix_(ids, ids)]))


def _robin_solver(grams):
    def build():
        R = trace_matrix(grams)
        return _spd_solver(grams.A_bulk + R.T @ grams.M_surf @ R)

    return _cached(grams, "robin_solve", build)


def _dirichlet_solve(grams, rhs_full, g):
    """u with trace coefficients g and a(u, phi) = rhs_full . phi for interior phi."""
    u = np.zeros(grams.mesh.n_nodes)
    u[grams.boundary_ids] = g
    ids = grams.interior_ids
    rhs = rhs_full[ids] - (grams.A_bulk @ u)[ids]
    u[ids] = _interior_solver(grams)(rhs)
    return FeFunction(grams.mesh, u, BULK)


def solve_dirichlet_fe(grams, f_h, g_h):
    """Solve a(u, phi) = m(f, phi) for interior phi, with trace(u) = g."""
    return _dirichlet_solve(grams, grams.M_bulk @ f_h.coeffs, g_h.coeffs)


def solve_robin_fe(grams, f_h, g_h):
    """Solve a(u, phi) + m_G(u, phi) = m(f, phi) + m_G(g, phi) for all phi."""
    mesh = grams.mesh
    R = trace_matrix(grams)
    rhs = grams.M_bulk @ f_h.coeffs + R.T @ (grams.M_surf @ g_h.coeffs)
    return FeFunction(mesh, _robin_solver(grams)(rhs), BULK)


# -- overkill meshes ---------------------------------------------------------


@dataclass
class OverkillSolution:
    """FE solution on a much finer mesh, standing in for the exact solver."""

    fine_mesh: Mesh
    fe: FeFunction

    @property
    def coeffs(self):
        return self.fe.coeffs


def refined_copy(mesh, factor):
    """The same domain meshed `factor` times finer (same order), from the
    process-wide mesh cache, so it is the ladder's mesh of that size."""
    if mesh.domain_kind == "disk":
        rings = int(round(np.sqrt(mesh.n_elements / 6)))
        return shared_mesh("disk", rings * factor, mesh.order)
    n = int(round(np.sqrt(mesh.n_elements / 2)))
    return shared_mesh("square", n * factor, mesh.order)


# -- deformed Dirichlet energy ----------------------------------------------


def deformed_dirichlet_energy(grams, e_x, w_h, z_h, method="pullback"):
    """Dirichlet energy after deforming the domain by x -> x + e_x(x).

    'pullback' integrates the deformation-tensor form on the original mesh;
    'remesh' displaces the geometry nodes by the nodal values of e_x,
    reassembles the stiffness form there, and pairs the same coefficient
    vectors. Both equal the energy on the deformed domain up to quadrature.
    """
    mesh = grams.mesh
    if e_x.arity != 2:
        raise ValueError("deformation field must be a 2-vector FE function")
    if method == "remesh":
        displaced = Mesh(
            nodes=mesh.nodes + e_x.coeffs,
            elements=mesh.elements,
            boundary_faces=mesh.boundary_faces,
            order=mesh.order,
            domain_kind=mesh.domain_kind,
        )
        g2 = assemble_grams(displaced)
        return float(w_h.coeffs @ (g2.A_bulk @ z_h.coeffs))
    if method != "pullback":
        raise ValueError(f"unknown method {method!r}")
    qd = bulk_quad_data(mesh)
    # displacement gradients A[x, c] = d(e_c)/dx_x (components in columns),
    # the convention under which B below is the pullback matrix
    G = eval_on_elements(e_x)[1]  # (ne, m, 2, 2)
    Finv, detF = _inverse_2x2(G + np.eye(2))
    if detF.min() <= 0.0:
        raise RuntimeError("deformation inverts an element at a quadrature point")
    # B = F^{-T} F^{-1} det(F); integrand (B grad w).grad z
    B = np.einsum("eqrx,eqry->eqxy", Finv, Finv) * detF[..., None, None]
    _, gw = eval_on_elements(w_h)
    _, gz = eval_on_elements(z_h)
    val = np.einsum("q,eq,eqxy,eqy,eqx->", qd["rule"].weights, qd["det"], B, gw, gz)
    return float(val)


def deformation_field(e_x, w_h):
    """(B - I) grad w at the rule points: the vector field whose gradient
    pairing with z gives the deformed-minus-original Dirichlet energy."""
    B = deformation_tensor(eval_on_elements(e_x)[1])
    _, gw = eval_on_elements(w_h)
    return np.einsum("eqxy,eqy->eqx", B, gw)
