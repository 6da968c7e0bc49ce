"""The geometric lift, Scott-Zhang interpolation, and the Dirichlet lift.

Run: python demos/03_lift_and_interpolation.py
"""

import numpy as np

from h32fem import (
    FeFunction,
    dirichlet_lift,
    disk_mesh,
    lift_of,
    nodal_interp_bulk,
    scott_zhang,
    solve_dirichlet_fe,
    sz_via_dirichlet,
    trace,
    winf_like_norm,
    zero_function,
)
from h32fem.lifting import grad_lambda_inf_error
from h32fem.norms import dual_neg_half_norms, h1_norm

# the lift moves the curved mesh onto the exact disk; the mesh fixes it
# (lift_of(m), built once per mesh), it moves only the boundary layer, and
# its gradient approaches the identity at rate h^k
print("lift gradient error by level (order 2):")
for n in (4, 8, 16):
    m = disk_mesh(n, 2)
    layer = len(lift_of(m).boundary_elements())
    print(f"  rings={n:2d}  h={m.h:.3f}  boundary layer {layer:3d} of {m.n_elements:4d} elements  "
          f"||grad Lambda - I||_inf = {grad_lambda_inf_error(m):.2e}")

# Scott-Zhang reproduces FE functions and their traces exactly
m = disk_mesh(4, 1)
rng = np.random.default_rng(1)
u = FeFunction(m, rng.normal(size=m.n_nodes))
sz = scott_zhang(u, m)
print(f"Scott-Zhang projection error on an FE function: {np.abs(sz.coeffs - u.coeffs).max():.1e}")

# the Dirichlet lift solves on a 4x finer mesh with lifted data; it is an
# FE function on that fine mesh
one = nodal_interp_bulk(m, lambda p: np.ones(len(p)))
sol = dirichlet_lift(one)
print(f"Dirichlet lift of the constant 1: overkill mesh h={sol.mesh.h:.3f}, "
      f"max deviation {np.abs(sol.coeffs - 1).max():.1e}")

# the trace-preserving quasi-interpolant has an h^{1/2}-type error bound
print("quasi-interpolant error ratio (random interior source):")
for n in (2, 4):
    m = disk_mesh(n, 1)
    c = rng.normal(size=m.n_nodes)
    c[m.boundary_node_ids] = 0.0
    f = FeFunction(m, c, "bulk0")
    uh = solve_dirichlet_fe(f, zero_function(m, "surface"))
    szh = sz_via_dirichlet(uh)
    err = h1_norm(FeFunction(m, uh.coeffs - szh.coeffs))
    ratio = err / (np.sqrt(m.h) * dual_neg_half_norms([f], "interior")[0])
    print(f"  rings={n}: ||u - I(u)||_H1 / (h^0.5 ||f||_-1/2) = {ratio:.3f}")

# the four-term W^{1,inf}-like norm behind the smallness criterion
m = disk_mesh(3, 1)
v = nodal_interp_bulk(m, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]))
v = v.scaled(m.h ** 2.1 / h1_norm(v))
print(f"smallness check: W-like norm {winf_like_norm(v):.2e} <= h^0.5 = {m.h**0.5:.2e}")
