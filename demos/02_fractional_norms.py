"""Fractional Sobolev norms from the (mass + stiffness, mass) pencil.

The norms apply the pencil's operator by rational quadrature (a sum of
shifted sparse solves); the eigenvalue range comes from the dense oracle.
Each norm takes the FE function alone: its Gram set and operator come
from the function's mesh (`grams_of(u.mesh)`), and a dual norm names its
test space ("interior" or "all").

Run: python demos/02_fractional_norms.py
"""

import numpy as np

from h32fem import (
    FeFunction,
    disk_mesh,
    dual_neg_half_norm,
    grams_of,
    h_s_norm,
    hhat_threehalf_norm,
    nodal_interp_bulk,
    spectral_decomp,
    trace,
)
from h32fem.gagliardo import gagliardo_half_oracle
from h32fem.meshing import build_square_mesh
from h32fem.norms import dense_eigenpairs, h1_norm, l2_norm

m = disk_mesh(6, order=1)
g = grams_of(m)
sb = spectral_decomp(g, "all")
lam, V = dense_eigenpairs(sb)
print(f"disk mesh: {m.n_nodes} nodes; eigenvalues in [{lam[0]:.6f}, {lam[-1]:.1f}] (dense oracle)")
print(f"  element bound {g.bulk_eig_bound:.1f}; {len(sb.shifts)} shifted sparse solves per operator apply")

u = nodal_interp_bulk(m, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1])
# the forms against the dense oracle's H^s norm, sqrt(sum lambda^s y^2), y = V^T M u
y = V.T @ (sb.M @ u.coeffs)
print(f"||u||_L2  = {l2_norm(u):.6f}  (= H^0 norm {np.sqrt(np.sum(y**2)):.6f})")
print(f"||u||_H1  = {h1_norm(u):.6f}  (= H^1 norm {np.sqrt(np.sum(lam * y**2)):.6f})")
print(f"||u||_H^1/2 = {h_s_norm(u, 0.5):.6f}  (spectral interpolation)")

# the 3/2-order norm: dual norm of the gradient plus boundary H1 norm
n32 = hhat_threehalf_norm(u)
print(f"||u||_3/2 (zero-trace variant) = {n32:.6f}")
print(f"boundary H1 of trace          = {h1_norm(trace(u)):.6f}")

# negative dual norms: exact suprema via one spectral solve
rng = np.random.default_rng(0)
c = rng.normal(size=m.n_nodes)
c[m.boundary_node_ids] = 0.0
f = FeFunction(m, c, "bulk0")
print(f"||f||_{{-1/2, zero trace}} = {dual_neg_half_norm(f, 'interior'):.6f}")
print(f"||f||_{{-1/2, full}}       = {dual_neg_half_norm(f, 'all'):.6f}")

# the Gagliardo double integral agrees with the spectral norm up to constants
sq = build_square_mesh(3, 1)
v = nodal_interp_bulk(sq, lambda p: p[:, 0] * p[:, 1])
semi = gagliardo_half_oracle(v)
full = np.sqrt(semi**2 + l2_norm(v) ** 2)
print(
    f"square: Gagliardo-based H^1/2 {full:.4f} vs spectral {h_s_norm(v, 0.5):.4f} "
    f"(ratio {full / h_s_norm(v, 0.5):.3f})"
)
