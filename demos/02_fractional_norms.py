"""Fractional Sobolev norms from the (mass + stiffness, mass) pencil.

The norms apply the pencil's operator by rational quadrature (a sum of
shifted sparse solves); the eigenvalue range comes from the dense oracle.
Every norm is one of two block primitives or a line over them: the H^s
norms of functions of one mesh (`h_s_norms(us, s)`, s in {0, 1/2, 1, 3/2})
and the dual norms of loads over a named test space
(`dual_norms(loads, mesh, dofset)`, dofset "interior" or "all"). Each finds
its Gram set and operator through the mesh (`grams_of(mesh)`,
`spectral_decomp(mesh, dofset)`), cached there.

Run: python demos/02_fractional_norms.py
"""

import numpy as np

from h32fem import (
    FeFunction,
    disk_mesh,
    dual_neg_half_norms,
    dual_norms,
    grams_of,
    h_s_norms,
    hhat_threehalf_norms,
    nodal_interp_bulk,
    spectral_decomp,
    trace,
)
from h32fem.assembly import eig_bound
from h32fem.gagliardo import gagliardo_seminorms
from h32fem.meshing import build_square_mesh
from h32fem.norms import dense_eigenpairs

m = disk_mesh(6, order=1)
g = grams_of(m)
sb = spectral_decomp(m, "all")
lam, V = dense_eigenpairs(sb)
print(f"disk mesh: {m.n_nodes} nodes; eigenvalues in [{lam[0]:.6f}, {lam[-1]:.1f}] (dense oracle)")
print(f"  element bound {eig_bound(m):.1f}; {len(sb.shifts)} shifted sparse solves per operator apply")

u = nodal_interp_bulk(m, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1])
# the four orders against the dense oracle's sqrt(sum lambda^s y^2), y = V^T M u
y = V.T @ (sb.M @ u.coeffs)
for s, how in ((0, "mass form"), (0.5, "operator"), (1, "mass + stiffness forms"), (1.5, "operator")):
    oracle = np.sqrt(np.sum(lam**s * y**2))
    print(f"||u||_H^{s:<3} = {h_s_norms([u], s)[0]:.6f}  ({how}; oracle {oracle:.6f})")

# the 3/2-order norm: dual norm of the gradient plus boundary H1 norm
n32 = hhat_threehalf_norms([u])[0]
print(f"||u||_3/2 (zero-trace variant) = {n32:.6f}")
print(f"  gradient dual norm            = {dual_norms(g.A_bulk @ u.coeffs, m, 'interior'):.6f}")
print(f"  boundary H1 of trace          = {h_s_norms([trace(u)], 1)[0]:.6f}")

# negative dual norms: exact suprema via one spectral solve, one block per test space
rng = np.random.default_rng(0)
c = rng.normal(size=m.n_nodes)
c[m.boundary_node_ids] = 0.0
f = FeFunction(m, c, "bulk0")
print(f"||f||_{{-1/2, zero trace}} = {dual_neg_half_norms([f], 'interior')[0]:.6f}")
print(f"||f||_{{-1/2, full}}       = {dual_neg_half_norms([f], 'all')[0]:.6f}")

# the Gagliardo double integral agrees with the spectral norm up to constants
sq = build_square_mesh(3, 1)
v = nodal_interp_bulk(sq, lambda p: p[:, 0] * p[:, 1])
semi = gagliardo_seminorms([v], sq)[0]
full = np.sqrt(semi**2 + h_s_norms([v], 0)[0] ** 2)
half = h_s_norms([v], 0.5)[0]
print(f"square: Gagliardo-based H^1/2 {full:.4f} vs spectral {half:.4f} (ratio {full / half:.3f})")
