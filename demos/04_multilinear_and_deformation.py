"""Multilinear-form calculus and the deformed Dirichlet energy.

Run: python demos/04_multilinear_and_deformation.py
"""

import numpy as np

from h32fem import (
    FeFunction,
    comparison_decompose,
    deformation_tensor,
    deformed_dirichlet_energy,
    det_form,
    disk_mesh,
    ml_eval,
    ml_fix_slot,
    ml_norm,
    neumann_tail,
    nodal_interp_bulk,
)
from h32fem.multilinear import ml_from_function, neumann_partial_sum

rng = np.random.default_rng(2)

# the determinant as a symmetrized multilinear form
D2 = det_form(2)
A = rng.normal(size=(2, 2))
print(f"det form: T(A, A) = {ml_eval(D2, [A, A]):+.6f}, det(A) = {np.linalg.det(A):+.6f}, ||T|| = {ml_norm(D2)}")
print(f"2 det(A) - (tr(A)^2 - tr(A^2)) = {2*np.linalg.det(A) - (np.trace(A)**2 - np.trace(A@A)):.1e}")

# fixing a slot contracts the form
T = ml_from_function(lambda a, b: np.trace(a.T @ b), [(2, 2)] * 2)
Tf = ml_fix_slot(T, 0, np.eye(2))
print(f"fix u1 = I in tr(u1^T u2): gives the trace, T~(A) = {ml_eval(Tf, [A]):+.6f} = tr(A) = {np.trace(A):+.6f}")

# the Neumann tail and its alternating series
B = 0.2 * rng.normal(size=(2, 2))
print(f"series residual after 50 terms: {np.abs(neumann_tail(B) - neumann_partial_sum(B, 50)).max():.1e}")

# the comparison decomposition behind the multilinear comparison theorem
T3 = ml_from_function(lambda a, b, c: np.trace(a @ b @ c), [(2, 2)] * 3)
us = [rng.normal(size=(2, 2)) for _ in range(2)]
cs = [rng.normal(size=(2, 2)) for _ in range(2)]
v = rng.normal(size=(2, 2))
terms = comparison_decompose(T3, us, cs, fixed=[v])
direct = ml_eval(T3, us + [v]) - ml_eval(T3, cs + [v])
print(f"comparison decomposition: {len(terms)} terms, sum residual {abs(sum(terms)-direct):.1e}")

# deformation tensor: zero at identity, zero for 2D conformal scalings
print(f"deformation_tensor(0) = 0: {np.abs(deformation_tensor(np.zeros((2,2)))).max():.1e}")
print(f"deformation_tensor(0.3 I) = 0 (conformal): {np.abs(deformation_tensor(0.3*np.eye(2))).max():.1e}")

# deformed Dirichlet energy: pullback and remesh agree to quadrature
m = disk_mesh(4, 2)
w = nodal_interp_bulk(m, lambda p: np.sin(p[:, 0]) * p[:, 1])
z = nodal_interp_bulk(m, lambda p: np.cos(p[:, 1]) + p[:, 0] ** 2)
P = m.nodes
ex = FeFunction(m, 0.03 * np.column_stack([P[:, 1] ** 2, np.sin(P[:, 0])]))
v1 = deformed_dirichlet_energy(ex, w, z, "pullback")
v2 = deformed_dirichlet_energy(ex, w, z, "remesh")
print(f"deformed energy: pullback {v1:.8f}, remesh {v2:.8f}, rel diff {abs(v1-v2)/abs(v1):.1e}")
