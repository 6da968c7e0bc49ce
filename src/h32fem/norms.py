"""Fractional Sobolev norms through one operator per spectral pencil.

On a DOF set, let K = M + A and M be the restricted bulk (or surface)
Gram matrices. Every norm here is a quadratic form in one operator,

    R = V Lambda^{-1/2} V^T,   K V = M V Lambda,  V^T M V = I,

whose spectrum lies in [1, Lambda_max] (A is semidefinite). The dual norm
of a load b, the supremum of b . phi over the set's FE functions with
||phi||_{1/2} = 1, is sqrt(b . R b) and is attained at phi = R b (up to
scaling), so no iterative optimization is involved. With y = V^T M u,
||u||_s^2 = sum lambda^s y^2 is u . M u at s = 0, (M u) . R (K u) at
s = 1/2, u . K u at s = 1 and (K u) . R (K u) at s = 3/2.

R is never formed. `SpectralBasis.apply` evaluates

    R b ~ sum_j c_j (K + s_j M)^{-1} b,

one sparse SPD factorization (`meshing._spd_solver`) per shift s_j > 0,
from the real-shift rational quadrature of Hale, Higham & Trefethen
(SIAM J. Numer. Anal. 46, 2008):
lambda^{-1/2} = (2/pi) int_0^inf dt / (t^2 + lambda), substituted with
t = sc(u | p), p = 1 - 1/Lambda, and the midpoint rule with N nodes on
[0, K(p)], K(p) the complete elliptic integral. Its relative error is
uniform on [1, Lambda] and below 10 exp(-pi^2 N / ln(4 sqrt(Lambda))) a
priori; N is the smallest count that brings this bound under QUAD_TOL.
Lambda is the rigorous element bound of the Gram set
(`assembly._eig_bound`), so no eigenvalue is ever estimated. Because the
error is relative in every eigencomponent, each norm and dual norm
carries the same relative error.

A dense generalized `eigh` of the pencil remains only as the oracle of the
tests and demos (`dense_eigenpairs`), capped at DENSE_EIG_NODE_CAP DOFs.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.special import ellipj, ellipk

from .assembly import BULK0, SURFACE, _contract, bulk_quad_data, eval_on_elements, trace
from .meshing import _cached, _spd_solver

ALL = "all"
INTERIOR = "interior"
# Relative error bound of the rational approximation of lambda^{-1/2}.
QUAD_TOL = 1e-13
# Largest pencil (in DOFs) the dense oracle solves.
DENSE_EIG_NODE_CAP = 20000


def inv_sqrt_quadrature(bound):
    """Shifts s_j > 0 and weights c_j with sum c_j / (lambda + s_j) equal to
    lambda^{-1/2} within relative QUAD_TOL for every lambda in [1, bound]."""
    p = 1.0 - 1.0 / bound
    K = float(ellipk(p))
    n = int(np.ceil(np.log(10.0 / QUAD_TOL) * np.log(4.0 * np.sqrt(bound)) / np.pi**2))
    u = (np.arange(n) + 0.5) * (K / n)
    sn, cn, dn, _ = ellipj(u, p)
    return (sn / cn) ** 2, (2.0 / np.pi) * (K / n) * dn / cn**2


@dataclass
class SpectralBasis:
    """The operator R of the pencil (K, M) = (M + A, M) on a DOF set."""

    dofset: str
    ids: np.ndarray
    K: sp.csr_matrix    # M + A restricted to ids
    M: sp.csr_matrix    # mass matrix restricted to ids
    shifts: np.ndarray
    weights: np.ndarray
    solves: list        # (K + s_j M)^{-1} by a sparse SPD factor, one per shift

    def __len__(self):
        return len(self.ids)

    def apply(self, b):
        """R b for a vector b on the DOF set."""
        out = np.zeros(len(b))
        for c, solve in zip(self.weights, self.solves):
            out += c * solve(b)
        return out


def spectral_decomp(grams, dofset=ALL):
    """The spectral operator on `dofset` ('all' or 'interior'), cached."""
    if dofset == ALL:
        ids = np.arange(grams.mesh.n_nodes)
    elif dofset == INTERIOR:
        ids = grams.interior_ids
    else:
        raise ValueError(f"unknown dofset {dofset!r}")
    return _cached(
        grams, ("spectral", dofset),
        lambda: _operator(dofset, ids, grams.M_bulk, grams.A_bulk, grams.bulk_eig_bound),
    )


def surface_spectral_decomp(grams):
    """The spectral operator of the surface pencil (M_surf + A_surf, M_surf)."""
    ids = np.arange(len(grams.boundary_ids))
    return _cached(
        grams, ("spectral", "surface"),
        lambda: _operator("surface", ids, grams.M_surf, grams.A_surf, grams.surf_eig_bound),
    )


def _operator(dofset, ids, M_full, A_full, bound):
    M = M_full[np.ix_(ids, ids)].tocsr()
    K = M + A_full[np.ix_(ids, ids)]
    shifts, weights = inv_sqrt_quadrature(bound)
    solves = [_spd_solver(K + s * M) for s in shifts]
    return SpectralBasis(dofset, ids, K, M, shifts, weights, solves)


def dense_eigenpairs(sb):
    """Oracle: eigenvalues (ascending) and M-orthonormal eigenvectors of
    sb's pencil by a dense eigh, refused past DENSE_EIG_NODE_CAP DOFs."""
    if len(sb) > DENSE_EIG_NODE_CAP:
        raise RuntimeError(
            f"{sb.dofset} pencil with {len(sb)} DOFs exceeds the dense eigensolve cap"
        )
    return sla.eigh(sb.K.toarray(), sb.M.toarray())


def spectral_power_norm(coeffs_on_set, s, sb):
    """sqrt(sum lambda^s y^2), y = V^T M u, for s in {0, 1/2, 1, 3/2}.

    The s in [0,1] range is the trustworthy interpolation regime; s = 3/2
    is used only as a norm-equivalent proxy on quasi-uniform meshes, e.g.
    for H^{3/2} of overkill solutions.
    """
    u = coeffs_on_set
    if s == 0:
        val = u @ (sb.M @ u)
    elif s == 0.5:
        val = (sb.M @ u) @ sb.apply(sb.K @ u)
    elif s == 1:
        val = u @ (sb.K @ u)
    elif s == 1.5:
        Ku = sb.K @ u
        val = Ku @ sb.apply(Ku)
    else:
        raise ValueError("s must be 0, 1/2, 1 or 3/2; other powers need dense_eigenpairs")
    return float(np.sqrt(val))


def h_s_norm(u, s, sb):
    """Interpolated H^s norm of a scalar FE function, s in {0, 1/2, 1}."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("h_s_norm expects s in [0, 1]")
    return spectral_power_norm(_restrict(u, sb), s, sb)


def _restrict(u, sb):
    """Coefficients of u on the spectral DOF set (u must vanish elsewhere)."""
    if sb.dofset == INTERIOR and u.space != BULK0:
        off = np.delete(u.coeffs, sb.ids)
        if np.any(off != 0.0):
            raise ValueError("function not supported on the interior DOF set")
    return u.coeffs[sb.ids]


# -- dual norms --------------------------------------------------------------


def dual_norm_from_load(b, sb):
    """sup over the set's functions of (b . phi) / ||phi||_{H^{1/2}}."""
    return float(np.sqrt(b @ sb.apply(b)))


def dual_neg_half_norm(f, sb, grams):
    """Negative-half dual norm of a scalar FE source.

    The sup runs over the test functions of sb's DOF set: the interior
    operator gives the zero-trace variant, the 'all' operator the full one.
    """
    b = (grams.M_bulk @ f.coeffs)[_bulk_ids(sb)]
    return dual_norm_from_load(b, sb)


def _bulk_ids(sb):
    """The DOF ids of a bulk operator ('all' or 'interior'); others are refused."""
    if sb.dofset not in (ALL, INTERIOR):
        raise ValueError(f"expected a bulk spectral operator, got {sb.dofset!r}")
    return sb.ids


def gradient_pairing_load(z, grams):
    """Load vector b_j = integral z . grad(phi_j) over the bulk mesh.

    z is a 2-vector FE function or a callable pts -> (m, 2) field.
    """
    mesh = grams.mesh
    qd = bulk_quad_data(mesh)
    w, det, gphys = qd["rule"].weights, qd["det"], qd["gphys"]
    ne, nb = mesh.elements.shape
    if hasattr(z, "coeffs"):
        if z.arity != 2:
            raise ValueError("need a 2-vector field")
        zq, _ = eval_on_elements(z)  # (ne, m, 2)
    elif isinstance(z, np.ndarray):
        zq = z  # already sampled at the rule points, (ne, m, 2)
    else:
        pts = qd["pts"]
        zq = np.asarray(z(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape)
    wz = (w * det)[:, :, None] * zq
    loc = _contract(wz.reshape(ne, 1, -1), gphys.reshape(ne, -1, nb))
    return np.bincount(mesh.elements.ravel(), loc.ravel(), minlength=mesh.n_nodes)


def vec_dual_half_norm(z, sb, grams):
    """Dual H^{1/2}-type norm of a 2-vector field, paired against gradients
    of sb's test functions."""
    b = gradient_pairing_load(z, grams)[_bulk_ids(sb)]
    return dual_norm_from_load(b, sb)


def hhat_threehalf_norm(u, grams, sb):
    """Discrete 3/2-order norm: gradient dual norm plus boundary H1 norm.

    The interior operator gives the defining variant (zero-trace test
    space); the 'all' operator the equivalent all-test-functions variant.
    """
    b = (grams.A_bulk @ u.coeffs)[_bulk_ids(sb)]
    dual = dual_norm_from_load(b, sb)
    g = trace(u).coeffs
    surf = float(np.sqrt(g @ (grams.M_surf @ g) + g @ (grams.A_surf @ g)))
    return dual + surf


def boundary_sobolev_norm(g, s, grams):
    """H^s norm on the discrete boundary for s in {0, 1/2, 1}."""
    if g.space != SURFACE:
        raise ValueError("expected a surface function")
    c = g.coeffs
    if s == 0:
        return float(np.sqrt(c @ (grams.M_surf @ c)))
    if s == 1:
        return float(np.sqrt(c @ ((grams.M_surf + grams.A_surf) @ c)))
    if s == 0.5:
        return spectral_power_norm(c, 0.5, surface_spectral_decomp(grams))
    raise ValueError("s must be 0, 1/2 or 1")


def h1_norm(u, grams):
    """Full H1 norm of a bulk FE function (scalar or vector, componentwise)."""
    c = u.coeffs
    if c.ndim == 1:
        return float(np.sqrt(c @ ((grams.M_bulk + grams.A_bulk) @ c)))
    return float(np.sqrt(sum(c[:, i] @ ((grams.M_bulk + grams.A_bulk) @ c[:, i]) for i in range(c.shape[1]))))


def l2_norm(u, grams):
    c = u.coeffs
    if c.ndim == 1:
        return float(np.sqrt(c @ (grams.M_bulk @ c)))
    return float(np.sqrt(sum(c[:, i] @ (grams.M_bulk @ c[:, i]) for i in range(c.shape[1]))))
