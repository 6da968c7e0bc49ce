"""Sobolev norms of order s on the bulk and on the boundary curve.

A spectral pencil is named by its DOF set: 'all' and 'interior' restrict
the bulk Gram matrices, 'surface' is the boundary curve's. On a set, let
K = M + A and M be the restricted Gram matrices, and

    R = V Lambda^{-1/2} V^T,   K V = M V Lambda,  V^T M V = I,

whose spectrum lies in [1, Lambda_max] (A is semidefinite). With
y = V^T M u, ||u||_s^2 = sum lambda^s y^2 is u . M u at s = 0 and
u . K u at s = 1, the mass and stiffness forms of the function's space
(`l2_norm`, `h1_norm`); only s = 1/2, (M u) . R (K u), and s = 3/2,
(K u) . R (K u), need R. The dual norm of a load b, the supremum of
b . phi over the set's FE functions with ||phi||_{1/2} = 1, is
sqrt(b . R b) and is attained at phi = R b (up to scaling), so no
iterative optimization is involved.

R is never formed. `SpectralBasis.apply` evaluates

    R b ~ sum_j c_j (K + s_j M)^{-1} b,

one sparse SPD factorization (`meshing._spd_factor`) per shift s_j > 0,
from the real-shift rational quadrature of Hale, Higham & Trefethen
(SIAM J. Numer. Anal. 46, 2008):
lambda^{-1/2} = (2/pi) int_0^inf dt / (t^2 + lambda), substituted with
t = sc(u | p), p = 1 - 1/Lambda, and the midpoint rule with N nodes on
[0, K(p)], K(p) the complete elliptic integral. Its relative error is
uniform on [1, Lambda] and below 10 exp(-pi^2 N / ln(4 sqrt(Lambda))) a
priori; N is the smallest count that brings this bound under QUAD_TOL.
K(p) and the nodes' Jacobi functions sn, cn and dn come from one
descending arithmetic-geometric mean ladder a_i, c_i from (1, sqrt(1 - p)):
K = pi / (2 a_N) (DLMF 19.8.1), and sn, cn and dn by the descending Landen
transformations phi_{i-1} = (phi_i + arcsin(c_i sin(phi_i) / a_i)) / 2
from phi_N = 2^N a_N u (Abramowitz & Stegun 16.4; DLMF 22.20(ii)), the
Cephes `ellpj` algorithm. Below p = 1e-9 the first-order expansions in p
are used instead, so that dn = 1 at Lambda = 1, where the ladder is empty.
Lambda is the rigorous element bound of the mesh's forms
(`assembly.eig_bound`), computed only where an operator is built, so no
eigenvalue is ever estimated. Because the error is relative in every
eigencomponent, each norm and dual norm carries the same relative error.

QUAD_TOL = 1e-10 is what the experiment tables need, and no tighter:
- a norm is the square root of a form in R, so it carries at most
  QUAD_TOL / 2, and a table cell, at most a ratio of two norms, at most
  QUAD_TOL;
- the fitted slope of a near-flat column moves by 2-3 QUAD_TOL relative
  (slopes near 0.03 and -0.003 moved 1.8e-8 and 3.1e-8 at QUAD_TOL = 1e-8);
- the reference tables are checked at rtol 1e-8, which 1e-8 fails on
  those two slopes, while 1e-10 leaves a margin of 30-50.
On the registry's pencils (Lambda up to 7.93e4) this gives N = 13-19.

Every shift's matrix K + s_j M has one sparsity pattern, so a pencil is
ordered once: the first shift is factored with the minimum-degree
ordering, P = argsort of its column permutation, and every other shift
is factored as (K + s_j M)[P][:, P] in that order. K and M are put on one
CSC pattern in that order once, their union, so each shift's matrix is
the values K + s_j M on it, with no sparse add or conversion per shift.
The fill equals a fresh minimum-degree factor's (without the argsort it
grows 14x), and an apply permutes its load once for all shifts.

Every operator quantity goes through one of two block primitives, each
taking one load or function, or a block of r of them solved in one pass
per factor:
- `dual_norms(loads, mesh, dofset)`: the dual norms of full-length loads
  over the test space 'interior' or 'all'; `dual_neg_half_norms` (mass
  loads) and `hhat_threehalf_norms` (stiffness loads, plus the boundary
  H1 norm) are one line over it;
- `h_s_norms(us, s)`: the H^s norms of scalar FE functions of one mesh and
  space, for s in {0, 1/2, 1, 3/2}.
Each finds its Gram set as `grams_of(mesh)` and its operator as
`spectral_decomp(mesh, dofset)`, cached on the mesh, so no Gram set or
operator of another mesh can reach it. Loads come from `assembly`, the
one reader of the quadrature records (`assembly.gradient_pairing_load`).
Only the dense generalized `eigh` of a pencil takes an operator
(`dense_eigenpairs`): it remains as the oracle of the tests and demos,
capped at DENSE_EIG_NODE_CAP DOFs.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import SURFACE, eig_bound, grams_of, trace
from .meshing import _cached, _spd_factor

ALL = "all"
INTERIOR = "interior"
# Relative error bound of the rational approximation of lambda^{-1/2},
# derived in the module docstring.
QUAD_TOL = 1e-10
# Largest pencil (in DOFs) the dense oracle solves.
DENSE_EIG_NODE_CAP = 20000
# Largest size of one operator's N factors, estimated from the first before
# the others are made: 4x the registry's largest at --levels 5 (247 MiB, k=2).
# Under a cap on the address space (RLIMIT_AS) the factors must also fit in
# what the cap leaves (`_address_space_left`).
FACTOR_BUDGET_BYTES = 2**30


def _agm(p):
    """The descending arithmetic-geometric mean ladder of (1, sqrt(1 - p)):
    a_i and c_i for i = 0..N, until c_N / a_N is below the unit roundoff;
    at p = 1 it would never end."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"elliptic parameter {p} outside [0, 1)")
    a, b, c = [1.0], np.sqrt(1.0 - p), [np.sqrt(p)]
    while c[-1] > 0.5 * np.finfo(float).eps * a[-1]:
        a_prev = a[-1]
        a.append(0.5 * (a_prev + b))
        c.append(0.5 * (a_prev - b))
        b = np.sqrt(a_prev * b)
    return a, c


def _ellipk(p):
    """The complete elliptic integral K(p) = pi / (2 AGM(1, sqrt(1 - p)))."""
    return np.pi / (2.0 * _agm(p)[0][-1])


def _ellipj(u, p):
    """Jacobi sn, cn, dn of u at parameter p in [0, 1) by descending Landen
    transformations on the AGM ladder; below p = 1e-9 their first-order
    expansions in p, exact to rounding there (at p = 0 the ladder is empty
    and the last step's ratio would give dn = cn, not 1)."""
    if p < 1e-9:
        s, c = np.sin(u), np.cos(u)
        r = 0.25 * p * (u - s * c)
        return s - r * c, c + r * s, 1.0 - 0.5 * p * s * s
    a, c = _agm(p)
    phi = 2.0 ** (len(a) - 1) * a[-1] * u
    for ai, ci in zip(a[:0:-1], c[:0:-1]):
        prev, phi = phi, 0.5 * (np.arcsin(ci * np.sin(phi) / ai) + phi)
    return np.sin(phi), np.cos(phi), np.cos(phi) / np.cos(prev - phi)


def inv_sqrt_quadrature(bound):
    """Shifts s_j > 0 and weights c_j with sum c_j / (lambda + s_j) equal to
    lambda^{-1/2} within relative QUAD_TOL for every lambda in [1, bound]."""
    p = 1.0 - 1.0 / bound
    K = _ellipk(p)
    n = int(np.ceil(np.log(10.0 / QUAD_TOL) * np.log(4.0 * np.sqrt(bound)) / np.pi**2))
    u = (np.arange(n) + 0.5) * (K / n)
    sn, cn, dn = _ellipj(u, p)
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
    perm: np.ndarray    # the pencil's ordering P
    factors: list       # SPD factors of K + s_j M, one per shift; all but
                        # the first of the matrix permuted to [P][:, P]

    def __len__(self):
        return len(self.ids)

    def apply(self, b):
        """R b for a load b (n,) on the DOF set, or for each column of a block (n, r)."""
        first, *rest = self.factors
        bp = b[self.perm]
        acc = np.zeros(bp.shape)
        for c, lu in zip(self.weights[1:], rest):
            acc += c * lu.solve(bp)
        out = self.weights[0] * first.solve(b)
        out[self.perm] += acc
        return out


def spectral_decomp(mesh, dofset=ALL):
    """The spectral operator of the mesh's pencil on `dofset`, cached on the
    mesh: 'all' or 'interior' on the bulk forms, 'surface' on the surface forms."""
    if dofset == SURFACE:
        ids = np.arange(len(mesh.boundary_node_ids))
        pencil = lambda g: (g.M_surf, g.A_surf)
    elif dofset in (ALL, INTERIOR):
        ids = np.arange(mesh.n_nodes) if dofset == ALL else mesh.interior_node_ids
        pencil = lambda g: (g.M_bulk, g.A_bulk)
    else:
        raise ValueError(f"unknown dofset {dofset!r}")
    return _cached(mesh, ("spectral", dofset), lambda: _operator(
        dofset, ids, *pencil(grams_of(mesh)), eig_bound(mesh, dofset == SURFACE)))


def _operator(dofset, ids, M_full, A_full, bound):
    M = M_full[np.ix_(ids, ids)].tocsr()
    K = M + A_full[np.ix_(ids, ids)]
    shifts, weights = inv_sqrt_quadrature(bound)
    left = _address_space_left()
    first = _spd_factor(K + shifts[0] * M)
    # 8-byte values and 4-byte indices per nonzero; under RLIMIT_AS also the
    # address space the factors map, each what the first mapped: SuperLU
    # maps its fill estimate, several times the nonzeros it fills
    checks = [(len(shifts) * first.nnz * 12, FACTOR_BUDGET_BYTES, "")]
    if left is not None:
        mapped = len(shifts) * (left - _address_space_left())
        checks.append((mapped, left, ", the address space left under RLIMIT_AS"))
    for estimate, budget, source in checks:
        if estimate > budget:
            raise ValueError(
                f"{dofset} pencil with {len(ids)} DOFs: {len(shifts)} factors of about "
                f"{estimate / 2**20:.1f} MiB exceed the budget of {budget / 2**20:.1f} MiB{source}"
            )
    perm = np.argsort(first.perm_c)
    # K and M on one CSC pattern in the order P, their union: the real and
    # imaginary parts of K + iM, whose entries vanish only where both do
    KM = (K + 1j * M)[perm][:, perm].tocsc()
    shifted = lambda s: sp.csc_matrix((KM.data.real + s * KM.data.imag, KM.indices, KM.indptr), K.shape)
    factors = [first] + [_spd_factor(shifted(s), "NATURAL") for s in shifts[1:]]
    return SpectralBasis(dofset, ids, K, M, shifts, weights, perm, factors)


def _address_space_left():
    """Bytes this process may still map under its soft RLIMIT_AS: the limit
    less its mapped size (VmSize); None where no limit is set or either
    cannot be read. SuperLU raises MemoryError past the limit, so an
    operator is refused before it gets there."""
    try:
        import resource
        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        if limit == resource.RLIM_INFINITY:
            return None
        with open("/proc/self/statm") as f:
            mapped = int(f.read().split()[0]) * resource.getpagesize()
    except (ImportError, OSError, ValueError):
        return None
    return limit - mapped


def dense_eigenpairs(sb):
    """Oracle: eigenvalues (ascending) and M-orthonormal eigenvectors of
    sb's pencil by a dense eigh, refused past DENSE_EIG_NODE_CAP DOFs."""
    if len(sb) > DENSE_EIG_NODE_CAP:
        raise RuntimeError(
            f"{sb.dofset} pencil with {len(sb)} DOFs exceeds the dense eigensolve cap"
        )
    return sla.eigh(sb.K.toarray(), sb.M.toarray())


def _stacked(fs):
    """The one mesh of scalar FE functions of one space and their coefficients
    as columns; bulk and zero-trace functions share a space here."""
    mesh, surface = fs[0].mesh, fs[0].space == SURFACE
    if any(f.mesh is not mesh or (f.space == SURFACE) != surface or f.coeffs.ndim != 1 for f in fs):
        raise ValueError("a block of norms takes scalar functions of one mesh and space")
    return mesh, np.stack([f.coeffs for f in fs], axis=1)


def h_s_norms(us, s):
    """H^s norms of scalar FE functions of one mesh and space, bulk or surface,
    as an array, for s in {0, 1/2, 1, 3/2}: sqrt(sum lambda^s y^2), y = V^T M u.
    At s = 0 and 1 they are the forms of the space (`l2_norm`, `h1_norm`); at
    s = 1/2, (M u) . R (K u), and s = 3/2, (K u) . R (K u), one block through
    the operator of the functions' pencil ('surface' or 'all').

    The s in [0,1] range is the trustworthy interpolation regime; s = 3/2
    is used only as a norm-equivalent proxy on quasi-uniform meshes, e.g.
    for H^{3/2} of overkill solutions.
    """
    if s not in (0, 0.5, 1, 1.5):
        raise ValueError(f"s must be 0, 1/2, 1 or 3/2, not {s}")
    mesh, c = _stacked(us)
    if s in (0, 1):
        return np.array([_forms_norm(u, s == 1) for u in us])
    sb = spectral_decomp(mesh, SURFACE if us[0].space == SURFACE else ALL)
    Kc = sb.K @ c
    left = Kc if s == 1.5 else sb.M @ c
    return np.sqrt(np.vecdot(left.T, sb.apply(Kc).T))


def dual_norms(loads, mesh, dofset):
    """sup over the FE functions phi of `dofset` ('interior': the zero-trace
    test space, 'all': the full one) of (b . phi) / ||phi||_{H^{1/2}}, for a
    full-length load b (n,) of the mesh, or an array of it for each column
    of a block (n, r): sqrt(b . R b) on the set's DOFs."""
    if dofset not in (ALL, INTERIOR):
        raise ValueError(f"a bulk test space is 'all' or 'interior', not {dofset!r}")
    sb = spectral_decomp(mesh, dofset)
    b = loads[sb.ids]
    norm = np.sqrt(np.vecdot(b.T, sb.apply(b).T))
    return float(norm) if norm.ndim == 0 else norm


def dual_neg_half_norms(fs, dofset):
    """Negative-half dual norms of scalar FE sources of one mesh over the
    test space of `dofset`, as an array: the dual norms of their mass loads."""
    mesh, c = _stacked(fs)
    return dual_norms(grams_of(mesh).M_bulk @ c, mesh, dofset)


def hhat_threehalf_norms(us, dofset=INTERIOR):
    """Discrete 3/2-order norms of scalar FE functions of one mesh, as an
    array: the dual norm of the gradient pairing (the stiffness load) plus
    the boundary H1 norm.

    'interior' gives the defining variant (zero-trace test space); 'all'
    the equivalent all-test-functions variant.
    """
    mesh, c = _stacked(us)
    return dual_norms(grams_of(mesh).A_bulk @ c, mesh, dofset) + h_s_norms([trace(u) for u in us], 1)


def _forms_norm(u, with_stiffness):
    """sqrt of the mass form, plus the stiffness form if asked, of u's space
    (the surface forms for a surface function, the bulk forms otherwise),
    summed over the components of a scalar or vector function."""
    g = grams_of(u.mesh)
    M, A = (g.M_surf, g.A_surf) if u.space == SURFACE else (g.M_bulk, g.A_bulk)
    forms = (M, A) if with_stiffness else (M,)
    c = u.coeffs.reshape(len(u.coeffs), -1)
    return float(np.sqrt(sum(c[:, i] @ (f @ c[:, i]) for i in range(c.shape[1]) for f in forms)))


def h1_norm(u):
    """H1 norm of a bulk or surface FE function (scalar or vector, componentwise):
    the sum of the mass and stiffness quadratic forms."""
    return _forms_norm(u, True)


def l2_norm(u):
    """L2 norm of a bulk or surface FE function (scalar or vector, componentwise)."""
    return _forms_norm(u, False)
