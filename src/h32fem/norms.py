"""Fractional Sobolev norms via the spectral pencil (M + A, M).

The discrete H^s norm, s in [0, 1], is the interpolation norm induced by
the generalized eigendecomposition of (M + A, M) on a DOF set: with
V^T M V = I and eigenvalues lambda_i >= 1,

    ||u||_s^2 = sum_i lambda_i^s (V^T M u)_i^2,

which reproduces the L2 and full H1 quadratic forms exactly at s = 0, 1.
Dual (negative) norms are suprema of a load pairing over the set's FE
functions normalized in H^{1/2}; on the finite-dimensional space the sup
is attained and equals ||Lambda^{-1/4} V^T b|| for the load vector b, so
no iterative optimization is involved.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .assembly import BULK0, SURFACE, eval_on_elements, bulk_quad_data, trace
from .meshing import _cached

ALL = "all"
INTERIOR = "interior"
# Largest pencil (in DOFs) solved by a dense eigh.
DENSE_EIG_NODE_CAP = 20000


@dataclass
class SpectralBasis:
    """Eigendecomposition of (M + A, M) restricted to a DOF set."""

    dofset: str
    ids: np.ndarray
    eigenvalues: np.ndarray   # ascending, all >= 1 up to rounding
    eigenvectors: np.ndarray  # columns, M-orthonormal
    mass_on_set: np.ndarray   # dense restriction of the mass matrix

    def __len__(self):
        return len(self.eigenvalues)


def spectral_decomp(grams, dofset=ALL):
    """Full generalized eigendecomposition on `dofset` ('all' or 'interior')."""
    if dofset == ALL:
        ids = np.arange(grams.mesh.n_nodes)
    elif dofset == INTERIOR:
        ids = grams.interior_ids
    else:
        raise ValueError(f"unknown dofset {dofset!r}")
    return _cached(
        grams, ("spectral", dofset),
        lambda: _dense_decomp(grams, dofset, ids, grams.M_bulk, grams.A_bulk),
    )


def surface_spectral_decomp(grams):
    """Eigendecomposition of the surface pencil (M_surf + A_surf, M_surf)."""
    ids = np.arange(len(grams.boundary_ids))
    return _cached(
        grams, ("spectral", "surface"),
        lambda: _dense_decomp(grams, "surface", ids, grams.M_surf, grams.A_surf),
    )


def _dense_decomp(grams, dofset, ids, M_full, A_full):
    """Dense eigh of the pencil (M + A, M) restricted to ids, size-capped."""
    if len(ids) > DENSE_EIG_NODE_CAP:
        raise RuntimeError(
            f"{dofset} pencil with {len(ids)} DOFs exceeds the dense eigensolve cap"
        )
    M = M_full[np.ix_(ids, ids)].toarray()
    A = A_full[np.ix_(ids, ids)].toarray()
    lam, V = sla.eigh(M + A, M)
    return SpectralBasis(dofset=dofset, ids=ids, eigenvalues=lam, eigenvectors=V, mass_on_set=M)


def _spectral_coeffs(u_coeffs, sb):
    return sb.eigenvectors.T @ (sb.mass_on_set @ u_coeffs)


def spectral_power_norm(coeffs_on_set, s, sb):
    """sqrt(sum lambda^s c^2) without a range restriction on s.

    The s in [0,1] range is the trustworthy interpolation regime; larger s
    (up to 2) is used only as a norm-equivalent proxy on quasi-uniform
    meshes, e.g. for H^{3/2} of overkill solutions.
    """
    c = _spectral_coeffs(coeffs_on_set, sb)
    return float(np.sqrt(np.sum(sb.eigenvalues**s * c**2)))


def h_s_norm(u, s, sb):
    """Interpolated H^s norm of a scalar FE function, s in [0, 1]."""
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
    y = sb.eigenvectors.T @ b
    return float(np.sqrt(np.sum(y**2 / np.sqrt(sb.eigenvalues))))


def dual_norm_maximizer(b, sb):
    """Coefficients (on the DOF set) of the phi attaining the supremum."""
    y = sb.eigenvectors.T @ b
    return sb.eigenvectors @ (y / np.sqrt(sb.eigenvalues))


def h_half_norm_on_set(phi_coeffs, sb):
    """||phi||_{H^{1/2}} of coefficients living on the DOF set."""
    return spectral_power_norm(phi_coeffs, 0.5, sb)


def dual_neg_half_norm(f, variant, sb, grams):
    """Negative-half dual norm of a scalar FE source.

    variant 'zero_trace' takes the sup over interior test functions,
    'full' over all of them; sb must match.
    """
    _check_variant(variant, sb)
    b = (grams.M_bulk @ f.coeffs)[sb.ids]
    return dual_norm_from_load(b, sb)


def _check_variant(variant, sb):
    want = {"zero_trace": INTERIOR, "full": ALL}.get(variant)
    if want is None:
        raise ValueError(f"unknown variant {variant!r}")
    if sb.dofset != want:
        raise ValueError(f"variant {variant!r} needs a {want!r} spectral basis")


def gradient_pairing_load(z, grams, degree=None):
    """Load vector b_j = integral z . grad(phi_j) over the bulk mesh.

    z is a 2-vector FE function or a callable pts -> (m, 2) field.
    """
    mesh = grams.mesh
    qd = bulk_quad_data(mesh, degree)
    w, det, gphys = qd["rule"].weights, qd["det"], qd["gphys"]
    if hasattr(z, "coeffs"):
        if z.arity != 2:
            raise ValueError("need a 2-vector field")
        zq, _ = eval_on_elements(z, degree)  # (ne, m, 2)
    elif isinstance(z, np.ndarray):
        zq = z  # already sampled at the rule points, (ne, m, 2)
    else:
        pts = qd["pts"]
        zq = np.asarray(z(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape)
    loc = np.einsum("q,eq,eqx,eqbx->eb", w, det, zq, gphys)
    b = np.zeros(mesh.n_nodes)
    np.add.at(b, mesh.elements.ravel(), loc.ravel())
    return b


def vec_dual_half_norm(z, variant, sb, grams, degree=None):
    """Dual H^{1/2}-type norm of a 2-vector field, paired against gradients."""
    _check_variant(variant, sb)
    b = gradient_pairing_load(z, grams, degree)[sb.ids]
    return dual_norm_from_load(b, sb)


def hhat_threehalf_norm(u, variant, grams, sb):
    """Discrete 3/2-order norm: gradient dual norm plus boundary H1 norm.

    'zero_trace' is the defining variant (interior test space); 'full' is
    the equivalent all-test-functions variant.
    """
    _check_variant(variant, sb)
    b = (grams.A_bulk @ u.coeffs)[sb.ids]
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
