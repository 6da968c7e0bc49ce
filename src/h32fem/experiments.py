"""Experiment registry: one rate/ratio study per certified estimate.

`exp_<name>(cfg)` states an experiment as a `Spec` and does no work: per
level the key `(kind, n, order)` of the shared mesh its row is measured on
(or `None`: no mesh, h = 1), the columns, `level(mesh, rng)` giving the
row after h, the criterion, the gates and the column whose rate the table
reports, and the further shared meshes its levels read (`reads`).
`run_experiment` is the one runner: rows in schedule order from the
experiment's one random stream, judged by the gates. A gate yields records
(label, measured, lo, hi); the verdict is that each lies in its interval
(`gate_records`). By default every value column is `bounded`; rate studies
gate their `slopes`; the rest bound columns level by level (`at_most`).
Gram sets, operators, solvers, locators, overkill matrices and Gagliardo
Grams are cached on the mesh they derive from, and meshes (overkill ones by
`interp.overkill_key`) in one store, so the experiments of a run share
them; `run_plan` releases each mesh and its cache after the last
experiment that declares it. `plan_groups` splits a run into two groups that
share few meshes, for `verify all` to run one per process. Every operator
quantity a level takes is a dual norm over a named test space
(`norms.dual_norms`, and `dual_neg_half_norms` and `hhat_threehalf_norms`
over it) or an H^s norm (`norms.h_s_norms`); these and the solvers find a
function's Gram set, operators and factors through its mesh, so a level
passes them nothing and builds no operator itself.

Order-free experiments: `leibniz_half`, `det_identity`,
`resolvent_identity`, `comparison_identity`, `neumann_decay`,
`l2_product` and part (a) of `product_sampled` run on order-1 square
meshes (or on no mesh) whatever `--order` is, so their cells are the
same at k=1 and k=2. They are documented as order-free rather than run
at order k: that would move cells of the k=2 reference tables, and so
waits for a regeneration of those references.
"""


import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .assembly import (
    FeFunction,
    _integrate,
    bulk_quad_data,
    gradient_pairing_load,
    gradients_on_elements,
    grams_of,
    nodal_interp_bulk,
    trace,
    values_on_elements,
    zero_function,
)
from .basis import tri_ref_nodes, tri_shape
from .gagliardo import gagliardo_gram
from .harness import RateTable, fit_rate
from .interp import (
    dirichlet_lift,
    overkill_key,
    sampled_w1inf,
    scott_zhang,
    sz_via_dirichlet,
    winf_like_norm,
)
from .lifting import grad_lambda_inf_error
from .meshing import _norm_2x2, dof_map, release_meshes, shared_mesh
from .multilinear import (
    comparison_decompose,
    deformation_tensor,
    det_form,
    ml_eval,
    ml_from_function,
    neumann_partial_sum,
    neumann_tail,
    resolvent_identity_residual,
)
from .norms import (
    dual_neg_half_norms,
    dual_norms,
    h1_norm,
    h_s_norms,
    hhat_threehalf_norms,
    l2_norm,
)
# Bound, not called: perfbench's tracer wraps a function in every module that
# imports it by name, and its binding test checks this name.
from .norms import spectral_decomp  # noqa: F401
from .solvers import (
    deformation_field,
    deformed_dirichlet_energy,
    solve_dirichlet_fe,
    solve_robin_fe,
)
from . import studies


@dataclass
class ExperimentConfig:
    order: int = 1
    levels: int = 4
    seed: int = 20250809
    kappa: float = 0.1

    def validate(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.levels < 3:
            raise ValueError("need at least 3 refinement levels")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def get_mesh(kind, n, order):
    """The shared mesh (`meshing.shared_mesh`). Experiments look meshes up by
    this name, so replacing it runs them on fresh meshes."""
    return shared_mesh(kind, n, order)


def spectral_rings(levels):
    """Doubling ring counts of the spectral-norm ladders."""
    return [2 * 2**i for i in range(levels)]


def overkill_rings(levels):
    """Slowly growing ring counts whose 4x overkill stays tractable."""
    seq = []
    i = 0
    while len(seq) < levels:
        seq.extend([2 * 2**i, 3 * 2**i])
        i += 1
    return seq[:levels]


def geometry_rings(levels, order):
    """Finer doubling schedule for assembly-only geometric rate studies."""
    base = 4 if order == 1 else 6
    return [base * 2**i for i in range(levels)]


def _disks(rings, order):
    return [("disk", n, order) for n in rings]


def _overkill(keys):
    """The keys of the overkill meshes (`interp.overkill_mesh`) of the meshes `keys`."""
    return [overkill_key(key) for key in keys]


def bounded():
    """Gate on every value column: max/min <= 4 across levels and, with 3+
    levels, finest within x2 of level 2."""
    def records(cols):
        for c in list(cols)[1:]:
            v = cols[c]
            yield f"{c} max/min", v.max() / v.min(), -np.inf, 4.0
            if len(v) >= 3:
                yield f"{c} last/2nd", v[-1] / v[1], 0.5, 2.0
    return records


def slopes(lo, hi, target=0.0):
    """Gate: the fitted rate against h of each value column, less its target
    (a number, or one per value column), lies in [lo, hi]."""
    def records(cols):
        for c, t in zip(list(cols)[1:], np.broadcast_to(target, len(cols) - 1)):
            yield f"{c} slope - {t:g}", fit_rate(zip(cols["h"], cols[c]))[0] - t, lo, hi
    return records


def at_most(**bounds):
    """Gate: at every level each named column is at most its bound, a number
    or, level by level, another column."""
    def records(cols):
        for c, b in bounds.items():
            cap = cols[b] if isinstance(b, str) else np.full(len(cols[c]), b)
            for i, (x, y) in enumerate(zip(cols[c], cap)):
                yield f"{c} level {i}", x, -np.inf, y
    return records


@dataclass
class Spec:
    """One experiment, stated before it runs."""

    meshes: list            # per level the row's shared-mesh key, or None (h = 1)
    columns: list           # "h" first
    level: object           # level(mesh, rng) -> the row's values after h
    criterion: str
    gates: tuple = (bounded(),)
    slope: str = None       # the column whose rate the table reports
    reads: list = ()        # the further shared-mesh keys the levels read

    def mesh_keys(self):
        """Every shared-mesh key a run of this spec reads."""
        return {*self.meshes, *self.reads} - {None}


def gate_records(spec, rows):
    """The records (label, measured, lo, hi) of every gate of `spec` on the
    finished rows, each gate given the columns {name: values by level};
    the verdict passes when each measured value lies in its [lo, hi]."""
    cols = dict(zip(spec.columns, np.array(rows, dtype=float).T))
    return [rec for gate in spec.gates for rec in gate(cols)]


def _random_bulk(rng, mesh):
    return FeFunction(mesh, rng.normal(size=mesh.n_nodes))


def _random_interior(rng, mesh):
    c = rng.normal(size=mesh.n_nodes)
    c[mesh.boundary_node_ids] = 0.0
    return FeFunction(mesh, c, "bulk0")


# -- convergence-rate experiments ---------------------------------------------


def exp_interp_rates(cfg):
    k = cfg.order

    def level(m, rng):
        bulk = studies.bulk_interp_errors(m, studies.SMOOTH_SCALAR)
        return [*bulk, *studies.surface_interp_errors(m)]

    return Spec(
        _disks(geometry_rings(cfg.levels, k), k),
        ["h", "bulk_l2", "bulk_h1", "surf_l2", "surf_h1"], level,
        f"slopes {k+1}/{k} (bulk) and {k+1}/{k} (surface), tol 0.25",
        (slopes(-0.25, 0.25, [k + 1, k, k + 1, k]),), "bulk_l2",
    )


def exp_lift_consistency(cfg):
    k = cfg.order

    def level(m, rng):
        gl = grad_lambda_inf_error(m)
        bulk_pairs, surf_pairs = studies.form_pairs(m)
        bulk = [studies.form_errors(z, w, ("M_bulk", "A_bulk")) for z, w in bulk_pairs]
        A_surf = grams_of(m).A_surf
        varies = lambda t: float(t.coeffs @ (A_surf @ t.coeffs)) > 1e-20
        surf = [
            (studies.form_errors(z, w, ("M_surf", "A_surf")), varies(z) and varies(w))
            for z, w in surf_pairs
        ]
        ef = max(e[0] for e in bulk)
        eg = max(e[1] for e in bulk)
        eh = max(e[0] for e, _ in surf)
        ei = max(e[1] for e, keep in surf if keep)
        return [gl, ef, eg, eh, ei]

    return Spec(
        _disks(geometry_rings(cfg.levels, k), k),
        ["h", "grad_lambda", "m_bulk_err", "a_bulk_err", "m_surf_err", "a_surf_err"], level,
        f"grad slope {k}+-0.3; bulk form slopes {k}+-0.3; surface form slopes {k+1}+-0.3",
        (slopes(-0.3, 0.3, [k, k, k, k + 1, k + 1]),), "grad_lambda",
    )


def exp_lift_multilinear(cfg):
    k = cfg.order

    def T3(g1, g2, gw):
        return (g1[..., 0] * g2[..., 1] - 0.5 * g1[..., 1] * g2[..., 0]) * (
            gw[..., 0] + 0.7 * gw[..., 1]
        )

    def T_res(g1, gv, gw):
        return g1[..., 0] * np.einsum("...xy,...y->...x", neumann_tail(gv), gw)[..., 1]

    def level(m, rng):
        u1 = nodal_interp_bulk(m, studies.SMOOTH_SCALAR)
        u2 = nodal_interp_bulk(m, studies.SMOOTH_SCALAR_2)
        w = nodal_interp_bulk(m, lambda p: np.cos(p[:, 0] - 0.4 * p[:, 1]))
        plain = studies.multilinear_gradient_integral([u1, u2, w], T3)
        lifted_qd = bulk_quad_data(m, lifted=True)
        lifted = studies.multilinear_gradient_integral([u1, u2, w], T3, lifted_qd)
        grad_sup_u2 = float(np.linalg.norm(gradients_on_elements(u2), axis=-1).max())
        denom = h1_norm(u1) * h1_norm(w) * max(grad_sup_u2, 1.0)
        # generalized variant with a resolvent slot fed by a small
        # 2-vector displacement with W^{1,inf} <= 1/8
        vv = FeFunction(
            m, 0.05 * np.column_stack([u1.coeffs, u2.coeffs])
        )
        plain2 = studies.multilinear_gradient_integral([u1, vv, w], T_res)
        lifted2 = studies.multilinear_gradient_integral([u1, vv, w], T_res, lifted_qd)
        return [
            abs(plain - lifted) / denom,
            abs(plain2 - lifted2) / (h1_norm(vv) * h1_norm(w)),
        ]

    return Spec(
        _disks(geometry_rings(cfg.levels, k), k), ["h", "resid_lemma31", "resid_lemma32"], level,
        f"normalized residual slopes >= {k}-0.3",
        (slopes(k - 0.3, np.inf),), "resid_lemma31",
    )


# -- interpolation operators ---------------------------------------------------


def exp_sz_projection(cfg):
    def level(m, rng):
        u = _random_bulk(rng, m)
        su = scott_zhang(u, m)
        proj = float(np.abs(su.coeffs - u.coeffs).max())
        tr_err = float(np.abs(trace(su).coeffs - trace(u).coeffs).max())
        one = nodal_interp_bulk(m, lambda p: np.ones(len(p)))
        one_err = float(np.abs(scott_zhang(one, m).coeffs - 1.0).max())
        # H1 stability on a rough pointwise function
        rough = lambda p: np.sign(np.sin(7.0 * p[:, 0]) + np.cos(5.0 * p[:, 1])) + 0.5 * p[:, 0]
        sz_r = scott_zhang(rough, m)
        ref = nodal_interp_bulk(m, rough)
        return [proj, tr_err, one_err, h1_norm(sz_r) / max(h1_norm(ref), 1e-30)]

    return Spec(
        _disks(overkill_rings(cfg.levels), cfg.order),
        ["h", "projection_err", "trace_err", "const_err", "h1_stability"], level,
        "projection/trace errors <= 1e-10; constants exact; H1 stability <= 5",
        (at_most(projection_err=1e-10, trace_err=1e-10, const_err=1e-12, h1_stability=5.0),),
    )


def exp_sz_error(cfg):
    def level(m, rng):
        # both data first, then one block of dual norms and one of 3/2 norms
        fs = [_random_interior(rng, m), nodal_interp_bulk(m, studies.SMOOTH_SCALAR_2)]
        gss = [zero_function(m, "surface"), trace(nodal_interp_bulk(m, lambda p: p[:, 0] * p[:, 1]))]
        us = [solve_dirichlet_fe(f, gs) for f, gs in zip(fs, gss)]
        num = np.array([h1_norm(FeFunction(m, u.coeffs - sz_via_dirichlet(u).coeffs)) for u in us])
        den36 = dual_neg_half_norms(fs, "interior") + [h1_norm(gs) for gs in gss]
        return [
            float(np.max(num / (np.sqrt(m.h) * den36))),
            float(np.max(num / (np.sqrt(m.h) * hhat_threehalf_norms(us)))),
        ]

    meshes = _disks(overkill_rings(cfg.levels), cfg.order)
    return Spec(
        meshes, ["h", "ratio_lemma36", "ratio_46b"], level,
        "ratios: max/min <= 4 across levels, finest within x2 of level 2",
        slope="ratio_lemma36", reads=_overkill(meshes),
    )


# -- dual norms and the 3/2 norm ------------------------------------------------


def exp_dual_inverse(cfg):
    def level(m, rng):
        # the 8 pairs drawn in stream order, then one block per test space
        f0s, f1s = zip(*[(_random_interior(rng, m), _random_bulk(rng, m)) for _ in range(8)])
        row = []
        for fs, dofset in ((f0s, "interior"), (f1s, "all")):
            l2 = np.array([l2_norm(f) for f in fs])
            row.append(float((np.sqrt(m.h) * l2 / dual_neg_half_norms(fs, dofset)).max()))
        return row

    return Spec(
        _disks(spectral_rings(cfg.levels), cfg.order),
        ["h", "ratio_zero_trace", "ratio_full"], level,
        "h^{1/2} L2-to-dual ratios bounded: max/min <= 4, finest within x2",
        slope="ratio_zero_trace",
    )


def exp_inverse_estimate(cfg):
    def level(m, rng):
        us = [_random_bulk(rng, m) for _ in range(8)]
        vals = np.sqrt(m.h) * hhat_threehalf_norms(us) / np.array([h1_norm(u) for u in us])
        return [float(vals.max())]

    return Spec(
        _disks(spectral_rings(cfg.levels), cfg.order), ["h", "ratio"], level,
        "h^{1/2} ||u||_{3/2}/||u||_{H1} bounded: max/min <= 4, finest within x2",
        slope="ratio",
    )


def exp_h1_stability(cfg):
    def level(m, rng):
        us = [_random_bulk(rng, m) for _ in range(3)]
        sols = [dirichlet_lift(u) for u in us]
        h1 = np.array([h1_norm(u) for u in us])
        r_sz = [h1_norm(sz_via_dirichlet(u, sol=sol)) for u, sol in zip(us, sols)] / h1
        r_d = [h1_norm(sol) for sol in sols] / h1
        r_32 = 0.0
        if sols[0].mesh.n_nodes <= 4000:
            # the spectral H^{3/2} norms of the solutions on the overkill mesh
            r_32 = float(np.max(h_s_norms(sols, 1.5) / hhat_threehalf_norms(us)))
        return [float(r_sz.max()), float(r_d.max()), r_32]

    def control(cols):
        # vacuous: a level whose overkill mesh exceeds 4000 nodes reads 0 and
        # is skipped, and fewer than two cells give no record
        ctrl = cols["h32_control"][cols["h32_control"] > 0.0]
        if len(ctrl) >= 2:
            yield "h32_control max/min", ctrl.max() / ctrl.min(), -np.inf, 4.0

    meshes = _disks(overkill_rings(cfg.levels), cfg.order)
    return Spec(
        meshes, ["h", "sz_h1_ratio", "lift_h1_ratio", "h32_control"], level,
        "H1 stability ratios <= 5; overkill 3/2 control max/min <= 4",
        (at_most(sz_h1_ratio=5.0, lift_h1_ratio=5.0), control), reads=_overkill(meshes),
    )


def exp_norm_equivalence(cfg):
    def level(m, rng):
        us = [_random_bulk(rng, m) for _ in range(8)]
        ratios = hhat_threehalf_norms(us, "all") / hhat_threehalf_norms(us)
        return [float(ratios.min()), float(ratios.max())]

    return Spec(
        _disks(spectral_rings(cfg.levels), cfg.order), ["h", "bracket_lo", "bracket_hi"], level,
        "full/zero-trace bracket stable: max/min <= 4, finest within x2",
        slope="bracket_hi",
    )


def exp_interpolant_membership(cfg):
    k = cfg.order

    def level(m, rng):
        vs = [nodal_interp_bulk(m, fld) for fld in (studies.SMOOTH_SCALAR, studies.SMOOTH_SCALAR_2)]
        return [float(hhat_threehalf_norms(vs).max()) / (m.h ** (k - 0.5) + 1.0)]

    return Spec(
        _disks(spectral_rings(cfg.levels), k), ["h", "ratio"], level,
        "||interpolant||_{3/2} / (h^{k-1/2} + const) bounded: max/min <= 4",
        slope="ratio",
    )


# -- PDE regularity --------------------------------------------------------------


def _regularity(cfg, solve, dofset, s, panel, criterion):
    """Spec of a ladder of max ||u||_{3/2} / (dual norm of f over `dofset` + H^s norm of g),
    u = solve(f, g), over the panel (draw, g1, f2, g2): f = draw(rng, mesh)
    with g = g1, and the interpolant of f2 with g = g2 (traces of interpolants)."""
    draw, g1, f2, g2 = panel

    def level(m, rng):
        # both data first, then one block of dual norms and one of 3/2 norms
        fs = [draw(rng, m), nodal_interp_bulk(m, f2)]
        gss = [trace(nodal_interp_bulk(m, g)) for g in (g1, g2)]
        us = [solve(f, gs) for f, gs in zip(fs, gss)]
        den = dual_neg_half_norms(fs, dofset) + h_s_norms(gss, s)
        return [float(np.max(hhat_threehalf_norms(us) / den))]

    return Spec(
        _disks(spectral_rings(cfg.levels), cfg.order), ["h", "ratio"], level,
        criterion, slope="ratio",
    )


def exp_dirichlet_regularity(cfg):
    """Lemma 4.8 on the discrete solution, whose ratio is 1 by construction:
    A u = M f on the interior DOFs and trace(u) = g, so ||u||_{3/2} is the
    denominator up to rounding, and the slope and r^2 fit rounding noise.
    A restatement against the overkill solution waits for a regeneration
    of the references."""
    return _regularity(
        cfg, solve_dirichlet_fe, "interior", 1,
        (_random_interior, lambda p: p[:, 0] * p[:, 1],
         studies.SMOOTH_SCALAR, studies.SMOOTH_SCALAR_2),
        "||u||_{3/2}/(dual f + H1 g) bounded: max/min <= 4, finest within x2",
    )


def exp_robin_regularity(cfg):
    return _regularity(
        cfg, solve_robin_fe, "all", 0,
        (_random_bulk, lambda p: np.sin(2 * p[:, 0]),
         studies.SMOOTH_SCALAR_2, studies.SMOOTH_SCALAR),
        "||u||_{3/2}/(dual f + L2 g) bounded: max/min <= 4, finest within x2",
    )


def exp_smallness(cfg):
    kappa = 0.5  # the smallness scaling is pinned by the criterion itself

    def level(m, rng):
        v = nodal_interp_bulk(m, studies.SMOOTH_SCALAR)
        u = v.scaled(m.h ** (kappa + 1.5 + 0.1) / h1_norm(v))
        return [winf_like_norm(u), m.h**kappa]

    meshes = _disks(overkill_rings(cfg.levels), cfg.order)
    return Spec(
        meshes, ["h", "w1inf_like", "h_pow_kappa"], level,
        "with ||u||_{H1} = h^{kappa+1.6}, kappa=0.5: W-norm <= h^kappa at all levels",
        (at_most(w1inf_like="h_pow_kappa"),), "w1inf_like", reads=_overkill(meshes),
    )


# -- multilinear algebra ----------------------------------------------------------


def exp_det_identity(cfg):
    def level(_mesh, rng):
        A2 = rng.normal(size=(10_000, 2, 2))
        A3 = rng.normal(size=(2_000, 3, 3))
        d2, d3 = np.linalg.det(A2), np.linalg.det(A3)
        scale2, scale3 = np.maximum(np.abs(d2), 1.0), np.maximum(np.abs(d3), 1.0)
        D2, D3 = det_form(2), det_form(3)
        worst2 = float(np.max(np.abs(ml_eval(D2, [A2, A2]) - d2) / scale2))
        worst3 = float(np.max(np.abs(ml_eval(D3, [A3, A3, A3]) - d3) / scale3))
        tr = np.trace(A2, axis1=1, axis2=2)
        worst_tr = float(np.max(np.abs(2.0 * d2 - (tr**2 - np.trace(A2 @ A2, axis1=1, axis2=2))) / scale2))
        id3 = abs(ml_eval(D3, [np.eye(3)] * 3) - 1.0)
        return [worst2, worst3, worst_tr, id3]

    return Spec(
        [None], ["h", "det2_relerr", "det3_relerr", "trace_id_relerr", "det3_identity"], level,
        "determinant reproduction and 2det = tr^2 - tr(A^2) to 1e-12",
        (at_most(det2_relerr=1e-12, det3_relerr=1e-12, trace_id_relerr=1e-12,
                 det3_identity=1e-14),),
    )


def exp_resolvent_identity(cfg):
    def level(_mesh, rng):
        # 1000 pairs (A, B), each A's entries drawn before B's
        AB = rng.uniform(-0.2, 0.2, size=(1000, 2, 2, 2))
        return [float(resolvent_identity_residual(AB[:, 0], AB[:, 1]).max())]

    return Spec(
        [None], ["h", "max_rel_residual"], level,
        "factored resolvent difference matches direct to 1e-13 relative",
        (at_most(max_rel_residual=1e-13),),
    )


def exp_comparison_identity(cfg):
    def level(_mesh, rng):
        T = ml_from_function(lambda a, b, c: np.trace(a @ b @ c), [(2, 2)] * 3)
        # 100 samples (u1, u2, c1, c2, v), each drawn in that order
        u1, u2, c1, c2, v = np.moveaxis(rng.normal(size=(100, 5, 2, 2)), 1, 0)
        terms = comparison_decompose(T, [u1, u2], [c1, c2], fixed=[v])
        direct = ml_eval(T, [u1, u2, v]) - ml_eval(T, [c1, c2, v])
        scale = np.maximum(np.abs([direct, *terms]).max(axis=0), 1.0)
        worst = float(np.max(np.abs(sum(terms) - direct) / scale))
        # conformal and zero cases of the deformation tensor
        conf = max(
            float(np.abs(deformation_tensor(eps * np.eye(2))).max())
            for eps in (-0.3, 0.2, 0.7)
        )
        zero = float(np.abs(deformation_tensor(np.zeros((2, 2)))).max())
        return [worst, conf, zero]

    return Spec(
        [None], ["h", "max_rel_residual", "conformal_dev", "zero_dev"], level,
        "decomposition sums match differences to 1e-12; conformal vanishing",
        (at_most(max_rel_residual=1e-12, conformal_dev=1e-14, zero_dev=0.0),),
    )


def exp_neumann_decay(cfg):
    def level(_mesh, rng):
        # entries in [-0.2, 0.2], so every spectral radius is at most 0.4 < 1/2
        A = rng.uniform(-0.2, 0.2, size=(50, 2, 2))
        worst_series = float(np.abs(neumann_tail(A) - neumann_partial_sum(A, 50)).max())
        # sampled power decay for FE matrix fields, operator-norm sense: 100
        # samples of 4 linear components, 3 coefficients each, as one block
        m = get_mesh("square", 3, 1)
        c = rng.normal(size=(100, 4, 3)).reshape(400, 3).T[:, None, :]
        x, y = m.nodes[:, 0, None], m.nodes[:, 1, None]
        vals = values_on_elements(FeFunction(m, c[0] + c[1] * x + c[2] * y))
        A = np.moveaxis(vals.reshape(-1, 100, 2, 2), 1, 0)     # (sample, point, 2, 2)
        per_sample = lambda a: a.reshape(100, -1).max(axis=1)
        scale = lambda sup: 0.25 / np.maximum(sup, 1e-30)[:, None, None, None]
        A = A * scale(per_sample(_norm_2x2(A)))
        P, worst_op = A, 0.0
        for npow in range(2, 7):
            P = P @ A
            worst_op = max(worst_op, float(_norm_2x2(P).max()) / (4.0 ** (1 - npow) * 0.25))
        # entrywise-max version can fail; count it as a flag, not a failure
        Aent = A * scale(per_sample(np.abs(A)))
        flags = per_sample(np.abs(Aent @ Aent)) > 0.25 * per_sample(np.abs(Aent)) + 1e-15
        return [worst_series, worst_op, float(np.count_nonzero(flags))]

    return Spec(
        [None], ["h", "series_residual", "op_norm_decay_ratio", "entrywise_flags"], level,
        "50-term series to 1e-12; ||A^n|| <= 4^{1-n}||A|| in operator norm",
        (at_most(series_residual=1e-12, op_norm_decay_ratio=1.0 + 1e-12),),
        reads=[("square", 3, 1)],
    )


# -- products and deformation ------------------------------------------------------


def _square_half_seminorms(nside, c1, combine=None):
    """Gagliardo seminorms on the order-1 square mesh `nside` as quadratic
    forms in its cached P3 Gram matrix: the P1 nodal values c1 (one
    function per column) map exactly to P3 coefficients c3, and each
    column c of combine(c3) (c3 by default) gives sqrt(max(0, c^T G c)).
    Products of up to three P1 functions are P3 on the affine triangulation,
    so combine forms them nodally."""
    m = get_mesh("square", nside, 1)
    dofs = dof_map(m, 3)
    c3 = np.empty((dofs.max() + 1, c1.shape[1]))
    c3[dofs] = tri_shape(1, tri_ref_nodes(3)) @ c1[m.elements]
    C = c3 if combine is None else combine(c3)
    return np.sqrt(np.maximum(0.0, np.sum(C * (gagliardo_gram(m, 3) @ C), axis=0)))


def exp_leibniz_half(cfg):
    """u, v are P1 on the affine square, so uv is P2 on the same triangulation:
    all 600 seminorms are quadratic forms in one Gagliardo Gram matrix."""
    def with_products(c3):
        u3, v3 = c3[:, 0::2], c3[:, 1::2]
        return np.stack([u3, v3, u3 * v3], axis=2).reshape(len(c3), 600)

    def level(m, rng):
        c = rng.normal(size=(400, 6)).T[:, None, :]   # cu, cv of each of the 200 pairs
        x, y = m.nodes[:, 0, None], m.nodes[:, 1, None]
        c1 = (
            c[0] + c[1] * x + c[2] * y + c[3] * x**2 + c[4] * x * y + c[5] * y**2
        )                                   # (n_nodes, 400) nodal values: u, v, u, v, ...
        semi = _square_half_seminorms(3, c1, with_products)
        gu, gv, gp = semi[0::3], semi[1::3], semi[2::3]
        sup = np.abs(bulk_quad_data(m)["phi"] @ c1[m.elements]).max(axis=(0, 1))
        rhs = np.sqrt(2.0) * (gu * sup[1::2] + gv * sup[0::2]) * 1.05
        return [float(np.max(gp / rhs)), float(np.count_nonzero(gp > rhs))]

    return Spec(
        [("square", 3, 1)], ["h", "worst_lhs_over_rhs", "violations"], level,
        "|uv| <= sqrt(2)(|u| ||v||_inf + |v| ||u||_inf) x 1.05 on 200 pairs",
        (at_most(violations=0),),
    )


def exp_duality_sampled(cfg):
    """Duality estimate sampling: z is the gradient of a smooth interpolant.

    The numerator pairs z with gradients exactly (a stiffness product);
    the componentwise H^{1/2} normalizer uses the interpolants of the
    analytic gradient components (the elementwise gradient itself is not
    an FE function), which differ by O(h^k).
    """
    def level(m, rng):
        u = nodal_interp_bulk(m, lambda p: np.sin(p[:, 0] + 0.3 * p[:, 1]))
        b = grams_of(m).A_bulk @ u.coeffs  # load of z = grad(u) against test gradients
        # the H^{1/2} norms of the two components' interpolants, as one block
        z = nodal_interp_bulk(m, lambda p: np.cos(p[:, 0] + 0.3 * p[:, 1])[:, None] * [1.0, 0.3])
        comp = float(np.hypot(*h_s_norms([FeFunction(m, c) for c in z.coeffs.T], 0.5)))
        return [dual_norms(b, m, "interior") / comp, dual_norms(b, m, "all") / comp]

    return Spec(
        _disks(spectral_rings(cfg.levels), cfg.order),
        ["h", "ratio_zero_trace", "ratio_full"], level,
        "gradient-pairing dual norm / componentwise H^{1/2} bounded",
        slope="ratio_full",
    )


def exp_l2_product(cfg):
    slack = 10.0

    def level(m, rng):
        qd = bulk_quad_data(m)
        worst = 0.0
        for _ in range(50):
            us = [_random_bulk(rng, m) for _ in range(2)]
            v = _random_bulk(rng, m)
            vals_u = [values_on_elements(u) for u in us]
            vals_v = values_on_elements(v)
            inf = lambda arr: float(np.abs(arr).max())
            prod = vals_u[0] * vals_u[1] * vals_v
            lhs = np.sqrt(_integrate(qd, prod**2))
            rhs = (
                l2_norm(us[0]) * inf(vals_u[1])
                + l2_norm(us[1]) * inf(vals_u[0])
            ) * inf(vals_v)
            worst = max(worst, lhs / (slack * rhs))
            # comparison flavor against constant shifts
            cs = [float(rng.normal()) for _ in range(2)]
            lhs2 = np.sqrt(_integrate(qd, (prod - cs[0] * cs[1] * vals_v) ** 2))
            sh = [FeFunction(m, us[i].coeffs - cs[i]) for i in range(2)]
            rhs2 = (
                l2_norm(sh[0]) * (inf(vals_u[1] - cs[1]) + abs(cs[1]))
                + l2_norm(sh[1]) * (inf(vals_u[0] - cs[0]) + abs(cs[0]))
            ) * inf(vals_v)
            worst = max(worst, lhs2 / (slack * rhs2))
        return [worst]

    return Spec(
        [("square", 2, 1), ("square", 4, 1)], ["h", "worst_lhs_over_slack_rhs"], level,
        "L2 product and comparison estimates hold with slack factor 10",
        (at_most(worst_lhs_over_slack_rhs=1.0),),
    )


def _oracle_worst(rng):
    """Part (a) of `product_sampled`: the continuous-style product estimate
    with the Gagliardo oracle on a tiny square mesh, worst ratio to its
    slack-10 bound over 12 samples. The 48 P1 inputs' seminorms and those
    of the 12 cubic products are quadratic forms in the cached P3 Gram
    matrix, the products formed nodally."""
    m = get_mesh("square", 3, 1)
    slack = 10.0
    worst_cont = 0.0
    # the components of u1 and u2, then v1, of each sample
    samples = [[_smooth_rand_interp(m, rng) for _ in range(5)] for _ in range(12)]

    def with_products(c3):
        c = c3.reshape(len(c3), 12, 5)
        prods = (c[..., 0] * c[..., 2] + c[..., 1] * c[..., 3]) * c[..., 4]
        return np.hstack([c[..., :4].reshape(len(c3), 48), prods])

    inf_of = lambda u: float(np.abs(values_on_elements(u)).max())
    vec_inf = lambda uu: float(np.hypot(inf_of(uu[0]), inf_of(uu[1])))
    semi = _square_half_seminorms(3, np.column_stack([u.coeffs for s in samples for u in s]), with_products)
    for (a1, a2, b1, b2, v1), (g1a, g1b, g2a, g2b), gp in zip(samples, semi[:48].reshape(12, 4), semi[48:]):
        u1, u2 = (a1, a2), (b1, b2)
        w_half_inf = max(studies.sampled_whalf_inf(v1), inf_of(v1))
        rhs = (np.hypot(g1a, g1b) * vec_inf(u2) + np.hypot(g2a, g2b) * vec_inf(u1)) * w_half_inf
        worst_cont = max(worst_cont, gp / (slack * rhs))
    return worst_cont


def exp_product_sampled(cfg):
    k = cfg.order
    kappa = cfg.kappa
    worst_cont = None

    # (b) discrete flavor with the dual H^{1/2} norm across disk levels.
    # The u-slots are mesh-scale oscillations rescaled so the sampled
    # W^{1,infty}-like norm saturates the smallness threshold h^kappa;
    # the coarsest ring level cannot resolve such an oscillation, so the
    # window starts one step later.
    def level(md, rng):
        nonlocal worst_cont
        # part (a) runs once, at the first level, from the runner's stream;
        # that is why its square mesh is among the spec's `reads`
        if worst_cont is None:
            worst_cont = _oracle_worst(rng)
        vstar = nodal_interp_bulk(md, lambda p: np.cos(p[:, 0] - 0.4 * p[:, 1]))
        gv = gradients_on_elements(vstar)
        # both frequencies' loads and functions first, then one block of
        # dual norms and one of 3/2 norms: u1 of each, then u2's components
        loads, u1s, u2s = [], [], []
        for fr in (np.pi / md.h, 0.7 * np.pi / md.h):
            # deterministic mesh-scale oscillation at the smallness cap
            u1 = nodal_interp_bulk(
                md, lambda p: np.sin(fr * p[:, 0]) * np.cos(fr * p[:, 1])
            )
            u1 = u1.scaled(0.9 * md.h**kappa / sampled_w1inf(u1))
            psi1 = nodal_interp_bulk(md, lambda p: np.sin(fr * p[:, 1] + 1.0))
            psi2 = nodal_interp_bulk(md, lambda p: np.cos(fr * p[:, 0] + 2.0))
            wmax = max(sampled_w1inf(psi1), sampled_w1inf(psi2))
            u2 = FeFunction(md, np.column_stack([psi1.coeffs, psi2.coeffs]) * (0.9 * md.h**kappa / wmax))
            g1 = gradients_on_elements(u1)
            g2 = gradients_on_elements(u2)   # (ne, m, 2, 2), A[x, c] convention
            # T(a; B; c) = (a . e1) B c, a vector-valued multilinear field
            field = g1[..., 0][..., None] * np.einsum("eqxy,eqy->eqx", neumann_tail(g2), gv)
            loads.append(gradient_pairing_load(field, md))
            u1s.append(u1)
            u2s += [FeFunction(md, c) for c in u2.coeffs.T]
        lhs = dual_norms(np.column_stack(loads), md, "all")
        n32 = hhat_threehalf_norms(u1s + u2s)
        rhs = md.h ** ((2 - 1) * kappa) * (
            n32[:2] + np.hypot(n32[2::2], n32[3::2]) + md.h ** (k - 0.5 + kappa)
        )
        return [float(np.max(lhs / rhs)), worst_cont]

    # the constant oracle column is bounded by construction
    return Spec(
        _disks(overkill_rings(cfg.levels + 1)[1:], k),
        ["h", "discrete_ratio", "oracle_worst"], level,
        "oracle product estimate with slack 10; discrete ratio max/min <= 4, finest within x2",
        (at_most(oracle_worst=1.0), bounded()), "discrete_ratio",
        reads=[("square", 3, 1)],
    )


def _smooth_rand_interp(mesh, rng):
    c = rng.normal(size=6)
    return nodal_interp_bulk(
        mesh,
        lambda p: c[0]
        + c[1] * p[:, 0]
        + c[2] * p[:, 1]
        + c[3] * np.sin(p[:, 0])
        + c[4] * np.cos(p[:, 1])
        + c[5] * p[:, 0] * p[:, 1],
    )


def exp_deformation_discrete(cfg):
    """Deformation estimate with a smallness-route displacement.

    e_x = h^{1.6} x smooth interpolant keeps the W^{1,inf}-like norm under
    h^kappa for kappa near 0.1; the deformed-energy difference is paired
    against the worst test function (the dual-norm maximizer) and a smooth
    one. The bound's h^{k-1/2+kappa} consistency term is never generated by
    the exact pullback. The ratio decays only at k=1 (to 0.115 by level 8);
    at k=2 it grows, 0.144 -> 0.324 over --levels 5, and reads 0.343-0.358
    at levels 6-8. The slowly-refining window keeps it inside the x4 / x2
    drift budget.
    """
    k = cfg.order
    kappa = cfg.kappa

    def level(m, rng):
        psi1 = nodal_interp_bulk(m, lambda p: np.sin(p[:, 0]) * p[:, 1] ** 2 + p[:, 0])
        psi2 = nodal_interp_bulk(m, lambda p: np.cos(p[:, 1]) - 0.5 * p[:, 0] ** 2)
        ex = FeFunction(m, m.h**1.6 * np.column_stack([psi1.coeffs, psi2.coeffs]))
        w = nodal_interp_bulk(m, lambda p: np.sin(p[:, 0] + 0.2 * p[:, 1]))
        # the Euclidean norm of the zero-trace 3/2 norms of ex's components
        den0 = float(np.hypot(*hhat_threehalf_norms([FeFunction(m, c) for c in ex.coeffs.T])))
        den0 += m.h ** (k - 0.5 + kappa)
        # worst-case test function: the dual-pairing maximizer
        ratios = [dual_norms(gradient_pairing_load(deformation_field(ex, w), m), m, "interior") / den0]
        z = nodal_interp_bulk(m, studies.SMOOTH_SCALAR_2)
        dE = deformed_dirichlet_energy(ex, w, z, "pullback") - float(
            w.coeffs @ (grams_of(m).A_bulk @ z.coeffs)
        )
        ratios.append(abs(dE) / (den0 * h_s_norms([z], 0.5)[0]))
        return [max(ratios)]

    return Spec(
        _disks(overkill_rings(cfg.levels), k), ["h", "ratio"], level,
        "|deformed - original| / ((||e||_{3/2} + h^{k-1/2+kappa}) ||z||_{1/2}): max/min <= 4, finest within x2",
        slope="ratio",
    )


def exp_deformation_continuous(cfg):
    eps = 0.08
    phi1 = lambda p: eps * np.sin(p[:, 0]) * np.cos(p[:, 1])
    phi2 = lambda p: eps * np.cos(p[:, 0] + 0.5 * p[:, 1])
    w_fn = studies.SMOOTH_SCALAR
    z_fn = studies.SMOOTH_SCALAR_2

    def level(m, rng):
        qd = bulk_quad_data(m)
        pts = qd["pts"].reshape(-1, 2)
        # analytic displacement gradient (transposed-Jacobian convention)
        A = np.empty((len(pts), 2, 2))
        A[:, 0, 0] = eps * np.cos(pts[:, 0]) * np.cos(pts[:, 1])
        A[:, 1, 0] = -eps * np.sin(pts[:, 0]) * np.sin(pts[:, 1])
        A[:, 0, 1] = -eps * np.sin(pts[:, 0] + 0.5 * pts[:, 1])
        A[:, 1, 1] = -0.5 * eps * np.sin(pts[:, 0] + 0.5 * pts[:, 1])
        if _norm_2x2(A).max() > 0.25:
            raise RuntimeError("deformation exceeds the 1/4 smallness bound")
        # deformed minus original energy: the deformation tensor B - I paired
        integrand = np.einsum("nxy,ny,nx->n", deformation_tensor(A), w_fn.grad(pts), z_fn.grad(pts))
        dE = _integrate(qd, integrand.reshape(qd["det"].shape))
        # surrogate norms on the same mesh
        p32 = float(np.hypot(*h_s_norms([nodal_interp_bulk(m, phi) for phi in (phi1, phi2)], 1.5)))
        zhalf = h_s_norms([nodal_interp_bulk(m, z_fn)], 0.5)[0]
        w_i = nodal_interp_bulk(m, w_fn)
        # w is a fixed smooth field; its sampled W^{1,infty} norm is a
        # level-stable surrogate for the (constant) 3/2-smoothness factor
        w32inf = sampled_w1inf(w_i)
        return [abs(dE) / (w32inf * p32 * zhalf)]

    return Spec(
        _disks(spectral_rings(cfg.levels), cfg.order), ["h", "ratio"], level,
        "continuous-surrogate deformation ratio bounded: max/min <= 4",
        slope="ratio",
    )


REGISTRY = {
    "interp_rates": ("(3.7)", exp_interp_rates),
    "lift_consistency": ("(3.1b), (3.1f)-(3.1i)", exp_lift_consistency),
    "lift_multilinear": ("Lemma 3.1 / Lemma 3.2", exp_lift_multilinear),
    "sz_projection": ("Section 3.2", exp_sz_projection),
    "sz_error": ("Lemma 3.6 / (4.6b)", exp_sz_error),
    "dual_inverse": ("(3.13a)/(3.13b)", exp_dual_inverse),
    "inverse_estimate": ("Prop 4.3", exp_inverse_estimate),
    "h1_stability": ("Prop 4.4", exp_h1_stability),
    "norm_equivalence": ("Prop 4.6", exp_norm_equivalence),
    "interpolant_membership": ("Prop 4.7", exp_interpolant_membership),
    "dirichlet_regularity": ("Lemma 4.8", exp_dirichlet_regularity),
    "robin_regularity": ("Lemma 4.9", exp_robin_regularity),
    "smallness": ("Lemma 4.10", exp_smallness),
    "product_sampled": ("Lemma 2.11 / Thm 4.11", exp_product_sampled),
    "comparison_identity": ("Thm 2.12", exp_comparison_identity),
    "deformation_discrete": ("Cor 4.13", exp_deformation_discrete),
    "deformation_continuous": ("Cor 2.13", exp_deformation_continuous),
    "leibniz_half": ("Lemma 2.9", exp_leibniz_half),
    "neumann_decay": ("Lemma 2.10", exp_neumann_decay),
    "resolvent_identity": ("(3.5)", exp_resolvent_identity),
    "det_identity": ("Section 2.4", exp_det_identity),
    "duality_sampled": ("Lemmas 2.4/2.5/2.7", exp_duality_sampled),
    "l2_product": ("Cor 2.14", exp_l2_product),
}


def run_experiment(name, cfg=None):
    """Run one registered experiment and return its RateTable: the rows of
    its spec in schedule order from one random stream, judged by its gates."""
    if cfg is None:
        cfg = ExperimentConfig()
    cfg.validate()
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}")
    statement, build = REGISTRY[name]
    spec = build(cfg)
    rng = np.random.default_rng([cfg.seed, zlib.crc32(name.encode())])
    rows = []
    for key in spec.meshes:
        m = None if key is None else get_mesh(*key)
        rows.append([1.0 if m is None else m.h, *spec.level(m, rng)])
    passed = all(lo <= x <= hi for _, x, lo, hi in gate_records(spec, rows))
    slope, r2 = 0.0, 1.0
    if spec.slope is not None:
        i = spec.columns.index(spec.slope)
        slope, r2 = fit_rate([(r[0], max(abs(r[i]), 1e-300)) for r in rows])
    return RateTable(
        name, statement, spec.columns, rows, slope, r2,
        "pass" if passed else "fail", spec.criterion, asdict(cfg),
    )


def run_plan(names, cfg):
    """Run the named experiments in order, yielding (name, table); before
    each yield, release the stored meshes no remaining spec declares
    (`Spec.mesh_keys`), so an experiment's step is done when its table
    comes. A mesh read undeclared is built again, at a cost in time only."""
    keys = [REGISTRY[name][1](cfg).mesh_keys() for name in names]
    for i, name in enumerate(names):
        table = run_experiment(name, cfg)
        release_meshes(set().union(*keys[i + 1:]))
        yield name, table


def plan_groups(names, cfg, workers):
    """The named experiments as two groups to run one per process, or as
    one where `workers` is 1 or there is nothing to split.

    The first group is the experiment that declares the most meshes
    (`Spec.mesh_keys`; the first in `names` of a tie) with every other
    experiment that declares only meshes it declares; the second is the rest,
    mesh-free experiments included. So a mesh is built in both groups only
    where the first experiment and one of the rest declare it. No more
    than two groups are formed, as the first cannot be split without
    building its meshes twice.

    The first group runs head first: in descending order of declared
    meshes, ties in the order of `names`. Its widest experiments (the
    overkill family) then run before the spectral ladders, and the meshes
    only they read are released before the ladders build their operators;
    each experiment draws from its own stream, so the order changes no
    table. The second group, and the one group, keep the order of `names`:
    head first raised their peaks. At `--levels` 4 the first group is the
    heavier at k=2, 1.2-1.9 s of CPU against 0.7-1.1 s, and about even at
    k=1, 0.4-0.7 s against 0.4-0.6 s (each alone, after the imports, five
    runs on a noisy 2-vCPU host)."""
    if workers < 2:
        return [list(names)]
    keys = {name: REGISTRY[name][1](cfg).mesh_keys() for name in names}
    head = max(names, key=lambda name: len(keys[name]))
    first = [name for name in names if keys[name] and keys[name] <= keys[head]]
    rest = [name for name in names if name not in first]
    first.sort(key=lambda name: -len(keys[name]))
    return [first, rest] if first and rest else [list(names)]
