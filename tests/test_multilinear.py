import importlib.util
import itertools
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from h32fem.assembly import eval_on_elements, nodal_interp_bulk
from h32fem.experiments import REGISTRY, ExperimentConfig, get_mesh
from h32fem.meshing import _norm_2x2
from h32fem.multilinear import (
    MultilinearForm,
    comparison_decompose,
    deformation_tensor,
    det_form,
    ml_eval,
    ml_fix_slot,
    ml_from_function,
    ml_norm,
    neumann_partial_sum,
    neumann_tail,
    resolvent_identity_residual,
)

finite = st.floats(-10.0, 10.0, allow_nan=False)

_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_spec = importlib.util.spec_from_file_location("reference", _REFERENCE)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def mat2(rng):
    return rng.normal(size=(2, 2))


def trace_pair_form(d=2):
    """The bilinear form (u1, u2) -> tr(u1^T u2)."""
    return ml_from_function(lambda a, b: np.trace(a.T @ b), [(d, d), (d, d)])


def test_trace_form_examples():
    T = trace_pair_form(2)
    assert ml_eval(T, [np.eye(2), np.eye(2)]) == 2.0
    assert ml_norm(T) == 1.0
    Tf = ml_fix_slot(T, 0, np.eye(2))
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert abs(ml_eval(Tf, [A]) - np.trace(A)) < 1e-14


def test_fix_slot_with_zero_gives_zero_form():
    T = trace_pair_form(2)
    Tz = ml_fix_slot(T, 0, np.zeros((2, 2)))
    assert ml_norm(Tz) == 0.0


def test_fix_slot_agreement(rng):
    T = ml_from_function(lambda a, b: np.trace(a @ b) + a[0, 1] * b[1, 0], [(2, 2)] * 2)
    for _ in range(100):
        c, u = mat2(rng), mat2(rng)
        lhs = ml_eval(ml_fix_slot(T, 0, c), [u])
        rhs = ml_eval(T, [c, u])
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_multilinearity_in_each_slot(alpha, beta):
    rng = np.random.default_rng(7)
    T = trace_pair_form(2)
    u, v, w = mat2(rng), mat2(rng), mat2(rng)
    lhs = ml_eval(T, [alpha * u + beta * v, w])
    rhs = alpha * ml_eval(T, [u, w]) + beta * ml_eval(T, [v, w])
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_zero_slot_gives_zero(rng):
    T = trace_pair_form(2)
    assert ml_eval(T, [np.zeros((2, 2)), mat2(rng)]) == 0.0


def test_det_form_values(rng):
    D2, D3 = det_form(2), det_form(3)
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert abs(ml_eval(D2, [A, A]) + 2.0) < 1e-14
    assert abs(ml_eval(D3, [np.eye(3)] * 3) - 1.0) < 1e-14
    assert ml_norm(D2) == 0.5
    for _ in range(500):
        B = rng.normal(size=(2, 2))
        assert abs(ml_eval(D2, [B, B]) - np.linalg.det(B)) < 1e-12 * max(
            1.0, abs(np.linalg.det(B))
        )
    with pytest.raises(ValueError):
        det_form(4)


def leibniz_det_coeffs(d):
    """Reference: the coefficients of det_form by the Leibniz formula (slot k
    holds row k), symmetrized over slot permutations."""
    shape = (d,) * (2 * d)
    coeffs = np.zeros(shape)
    perms = list(itertools.permutations(range(d)))

    def parity(p):
        sign = 1
        p = list(p)
        for i in range(len(p)):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sign = -sign
        return sign

    # unsymmetrized Leibniz coefficients: slot k holds row k
    base = np.zeros(shape)
    for sigma in perms:
        idx = []
        for k in range(d):
            idx.extend((k, sigma[k]))
        base[tuple(idx)] += parity(sigma)
    # symmetrize over slot permutations
    for pi in perms:
        order = []
        for k in range(d):
            order.extend((2 * pi[k], 2 * pi[k] + 1))
        coeffs += np.transpose(base, order)
    coeffs /= len(perms)
    return coeffs


@pytest.mark.parametrize("d", [2, 3])
def test_det_form_is_the_symmetrized_leibniz_tensor(d):
    D = det_form(d)
    assert D.slot_shapes == ((d, d),) * d and D.output_shape == ()
    assert np.array_equal(D.coeffs, leibniz_det_coeffs(d))


def test_two_det_trace_identity(rng):
    for _ in range(1000):
        A = rng.normal(size=(2, 2))
        lhs = 2.0 * np.linalg.det(A)
        rhs = np.trace(A) ** 2 - np.trace(A @ A)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_deformation_tensor_zero_and_conformal():
    assert np.abs(deformation_tensor(np.zeros((2, 2)))).max() == 0.0
    for eps in (-0.5, 0.1, 2.0):
        assert np.abs(deformation_tensor(eps * np.eye(2))).max() < 1e-14


def test_deformation_tensor_diagonal():
    # (A+I)^{-T}(A+I)^{-1}det(A+I) - I at A = diag(e, 0) is
    # diag((1+e)^{-1} - 1, e) = diag(-e/(1+e), e)
    eps = 0.25
    got = deformation_tensor(np.diag([eps, 0.0]))
    want = np.diag([-eps / (1.0 + eps), eps])
    assert np.abs(got - want).max() < 1e-14


def test_deformation_tensor_batched_matches_per_matrix_loop(rng):
    # relative tolerance fixed before the comparison was run; the second
    # reference is the formula through LAPACK's inverse and determinant
    A = 0.2 * rng.normal(size=(7, 6, 2, 2))
    got = deformation_tensor(A)
    G = A + np.eye(2)
    Ginv = np.linalg.inv(G)
    lapack = np.swapaxes(Ginv, -1, -2) @ Ginv * np.linalg.det(G)[..., None, None] - np.eye(2)
    assert got.shape == A.shape
    for want in (np.array([[deformation_tensor(a) for a in row] for row in A]), lapack):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_deformation_tensor_refuses_other_shapes_and_singular_matrices():
    with pytest.raises(ValueError):
        deformation_tensor(np.zeros((3, 3)))
    # A + I singular at one matrix of a stack, as np.linalg.inv refused it
    with pytest.raises(np.linalg.LinAlgError):
        deformation_tensor(np.stack([np.zeros((2, 2)), np.diag([-1.0, 0.5])]))


def deformation_form(d=2):
    """Multilinear form behind the deformation tensor acting on a gradient,
    built by basis enumeration: evaluated at (G^{-1}, G^{-1}, G, ..., G, v)
    it returns G^{-T} G^{-1} det(G) v."""
    detf = det_form(d)

    def fn(N1, N2, *rest):
        ms, v = rest[:-1], rest[-1]
        return (N1.T @ N2 @ v) * ml_eval(detf, ms)

    return ml_from_function(fn, [(d, d)] * (2 + d) + [(d,)], (d,))


def test_deformation_form_consistency(rng):
    DF = deformation_form(2)
    assert ml_norm(DF) == 0.5
    for _ in range(20):
        A = 0.2 * rng.normal(size=(2, 2))
        G = A + np.eye(2)
        Gi = np.linalg.inv(G)
        v = rng.normal(size=2)
        lhs = ml_eval(DF, [Gi, Gi, G, G, v])
        rhs = Gi.T @ Gi @ v * np.linalg.det(G)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_neumann_tail_diagonal():
    got = neumann_tail(np.diag([0.2, -0.1]))
    assert np.abs(got - np.diag([-1.0 / 6.0, 1.0 / 9.0])).max() < 1e-14
    assert np.abs(neumann_tail(np.zeros((2, 2)))).max() == 0.0


def test_neumann_series_agreement(rng):
    for _ in range(50):
        A = 0.2 * rng.normal(size=(2, 2))
        while max(abs(np.linalg.eigvals(A))) >= 0.5:
            A *= 0.5
        assert np.abs(neumann_tail(A) - neumann_partial_sum(A, 50)).max() < 1e-12


def test_resolvent_identity(rng):
    assert np.abs(neumann_tail(np.eye(2) * 0.1) - neumann_tail(np.eye(2) * 0.1)).max() == 0.0
    for _ in range(1000):
        A = rng.uniform(-0.2, 0.2, (2, 2))
        B = rng.uniform(-0.2, 0.2, (2, 2))
        assert resolvent_identity_residual(A, B) < 1e-13
    # B = 0: LHS = (A+I)^{-1} - I = -(A+I)^{-1} A
    A = rng.uniform(-0.2, 0.2, (2, 2))
    lhs = neumann_tail(A) - neumann_tail(np.zeros((2, 2)))
    rhs = -np.linalg.inv(A + np.eye(2)) @ A
    assert np.abs(lhs - rhs).max() < 1e-14


def test_comparison_decompose(rng):
    T = ml_from_function(lambda a, b, c: np.trace(a @ b @ c), [(2, 2)] * 3)
    us = [mat2(rng) for _ in range(2)]
    cs = [mat2(rng) for _ in range(2)]
    v = mat2(rng)
    terms = comparison_decompose(T, us, cs, fixed=[v])
    assert len(terms) == 3
    direct = ml_eval(T, us + [v]) - ml_eval(T, cs + [v])
    assert abs(sum(terms) - direct) < 1e-12 * max(1.0, abs(direct))
    # u = c collapses every term
    zero_terms = comparison_decompose(T, cs, cs, fixed=[v])
    assert max(abs(t) for t in zero_terms) == 0.0
    # m = 1 is exact by linearity
    one_term = comparison_decompose(ml_fix_slot(T, 1, cs[1]), [us[0]], [cs[0]], fixed=[v])
    assert len(one_term) == 1


def test_batched_eval_matches_loop(rng):
    # leading batch axes on every argument, broadcast against an unbatched
    # one, give the per-matrix loop's values (scalar and vector outputs)
    D2, D3, DF = det_form(2), det_form(3), deformation_form(2)
    A2 = rng.normal(size=(4, 25, 2, 2))
    A3 = rng.normal(size=(100, 3, 3))
    v = rng.normal(size=2)
    got2 = ml_eval(D2, [A2, A2])
    got3 = ml_eval(D3, [A3, A3, A3])
    gotf = ml_eval(DF, [A2, A2, A2, A2, v])
    assert got2.shape == (4, 25) and got3.shape == (100,) and gotf.shape == (4, 25, 2)
    loop2 = np.array([[ml_eval(D2, [a, a]) for a in row] for row in A2])
    loop3 = np.array([ml_eval(D3, [a, a, a]) for a in A3])
    loopf = np.array([[ml_eval(DF, [a, a, a, a, v]) for a in row] for row in A2])
    assert np.abs(got2 - loop2).max() <= 1e-14
    assert np.abs(got3 - loop3).max() <= 1e-14
    assert np.abs(gotf - loopf).max() <= 1e-13 * np.abs(loopf).max()
    assert np.abs(got2 - np.linalg.det(A2)).max() <= 1e-12 * np.abs(np.linalg.det(A2)).max()
    with pytest.raises(ValueError):
        ml_eval(D2, [A2, A2[..., :1]])
    with pytest.raises(ValueError):
        ml_eval(D2, [A2, np.zeros(2)])


def test_shape_validation(rng):
    T = trace_pair_form(2)
    with pytest.raises(ValueError):
        ml_eval(T, [np.zeros((3, 3)), np.zeros((2, 2))])
    with pytest.raises(ValueError):
        ml_eval(T, [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        ml_fix_slot(T, 0, np.zeros(3))
    with pytest.raises(ValueError):
        MultilinearForm([(2, 2)], (), np.zeros((2, 3)))


# -- the resolvent kernel on stacks ---------------------------------------------

@st.composite
def stack_pairs(draw):
    """Two stacks (i, j, 2, 2) of one shape with entries in [-0.2, 0.2]."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), 2, 2)
    stack = arrays(float, shape, elements=st.floats(-0.2, 0.2))
    return draw(stack), draw(stack)


@given(stack_pairs())
@settings(max_examples=50, deadline=None)
def test_resolvent_routines_on_stacks_equal_their_per_matrix_values(pair):
    A, B = pair
    tail, partial = neumann_tail(A), neumann_partial_sum(A, 20)
    residual = resolvent_identity_residual(A, B)
    assert tail.shape == partial.shape == A.shape and residual.shape == A.shape[:2]
    for i, j in np.ndindex(A.shape[:2]):
        assert np.array_equal(tail[i, j], neumann_tail(A[i, j]))
        assert np.array_equal(partial[i, j], neumann_partial_sum(A[i, j], 20))
        one = resolvent_identity_residual(A[i, j], B[i, j])
        assert isinstance(one, float) and residual[i, j] == one


def test_resolvent_routines_refuse_other_shapes_and_singular_matrices():
    stack = np.stack([np.zeros((2, 2)), np.diag([-1.0, 0.5]), 0.1 * np.eye(2)])
    for call in (neumann_tail, lambda A: resolvent_identity_residual(A, np.zeros((2, 2)))):
        with pytest.raises(ValueError):
            call(np.zeros((3, 3)))
        # A + I singular at one matrix of the stack
        with pytest.raises(np.linalg.LinAlgError):
            call(stack)


# -- the three algebraic experiments: stacked levels against their loops --------
# The per-sample `level` bodies the stacked programs replaced, kept verbatim
# as references.


def loop_resolvent_identity(_mesh, rng):
    worst = 0.0
    for _ in range(1000):
        A = rng.uniform(-0.2, 0.2, size=(2, 2))
        B = rng.uniform(-0.2, 0.2, size=(2, 2))
        worst = max(worst, resolvent_identity_residual(A, B))
    return [worst]


def loop_comparison_identity(_mesh, rng):
    T = ml_from_function(lambda a, b, c: np.trace(a @ b @ c), [(2, 2)] * 3)
    worst = 0.0
    for _ in range(100):
        us = [rng.normal(size=(2, 2)) for _ in range(2)]
        cs = [rng.normal(size=(2, 2)) for _ in range(2)]
        v = rng.normal(size=(2, 2))
        terms = comparison_decompose(T, us, cs, fixed=[v])
        direct = ml_eval(T, us + [v]) - ml_eval(T, cs + [v])
        scale = max(abs(direct), max(abs(t) for t in terms), 1.0)
        worst = max(worst, abs(sum(terms) - direct) / scale)
    # conformal and zero cases of the deformation tensor
    conf = max(
        float(np.abs(deformation_tensor(eps * np.eye(2))).max())
        for eps in (-0.3, 0.2, 0.7)
    )
    zero = float(np.abs(deformation_tensor(np.zeros((2, 2)))).max())
    return [worst, conf, zero]


def loop_neumann_decay(_mesh, rng):
    worst_series = 0.0
    for _ in range(50):
        A = rng.uniform(-0.2, 0.2, size=(2, 2))
        while max(abs(np.linalg.eigvals(A))) >= 0.5:
            A *= 0.5
        worst_series = max(
            worst_series, float(np.abs(neumann_tail(A) - neumann_partial_sum(A, 50)).max())
        )
    # sampled power decay for FE matrix fields, operator-norm sense
    m = get_mesh("square", 3, 1)
    worst_op = 0.0
    entrywise_flags = 0
    for _ in range(100):
        comps = [
            nodal_interp_bulk(m, lambda p, c=rng.normal(size=3): c[0] + c[1] * p[:, 0] + c[2] * p[:, 1])
            for _ in range(4)
        ]
        vals = np.stack([eval_on_elements(c)[0] for c in comps], axis=-1)
        A = vals.reshape(*vals.shape[:2], 2, 2)
        sup = _norm_2x2(A).max()
        A = A * (0.25 / max(sup, 1e-30))
        P = A.copy()
        for npow in range(2, 7):
            P = np.einsum("eqxy,eqyz->eqxz", P, A)
            worst_op = max(
                worst_op,
                _norm_2x2(P).max() / (4.0 ** (1 - npow) * 0.25),
            )
        # entrywise-max version can fail; count it as a flag, not a failure
        sup_ent = np.abs(A).max()
        Aent = A * (0.25 / sup_ent) if sup_ent > 0 else A
        Pe = np.einsum("eqxy,eqyz->eqxz", Aent, Aent)
        if np.abs(Pe).max() > 0.25 * np.abs(Aent).max() + 1e-15:
            entrywise_flags += 1
    return [worst_series, worst_op, float(entrywise_flags)]


LOOPS = {
    "resolvent_identity": loop_resolvent_identity,
    "comparison_identity": loop_comparison_identity,
    "neumann_decay": loop_neumann_decay,
}


@pytest.mark.parametrize("seed", [20250809, 7, 0, 1, 2, 3, 4])
@pytest.mark.parametrize("name", list(LOOPS))
def test_stacked_level_equals_the_loop(name, seed):
    # each from the runner's stream of `name` at `seed`, within the tolerance
    # the reference tables are checked at; the flag count exactly
    stream = lambda: np.random.default_rng([seed, zlib.crc32(name.encode())])
    spec = REGISTRY[name][1](ExperimentConfig(seed=seed))
    got, want = spec.level(None, stream()), LOOPS[name](None, stream())
    np.testing.assert_allclose(got, want, rtol=reference.RTOL, atol=reference.ATOL)
    if name == "neumann_decay":
        assert got[2] == want[2]
