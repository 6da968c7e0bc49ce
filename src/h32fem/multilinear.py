"""Constant-coefficient multilinear forms and the deformation-tensor algebra.

A form is stored as a dense coefficient tensor whose leading axes run over
the entries of each input slot (vectors contribute one axis, matrices two)
and whose trailing axes are the output entries (none for scalar output).
Evaluation is a sequence of tensordot contractions, so linearity in each
slot holds to rounding by construction.

The deformation algebra is 2x2 resolvent algebra: the deformation tensor,
the Neumann tail (A + I)^{-1} - I and the residual of the factored form
of the resolvent difference all read (A + I)^{-1} from one closed-form
inverse (`_shifted_inverse` over `meshing._inverse_2x2`). Like `ml_eval`,
each routine takes one matrix or a stack with leading batch axes.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .meshing import _inverse_2x2


@dataclass
class MultilinearForm:
    slot_shapes: tuple
    output_shape: tuple
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.slot_shapes = tuple(tuple(s) for s in self.slot_shapes)
        self.output_shape = tuple(self.output_shape)
        expect = sum(self.slot_shapes, ()) + self.output_shape
        if self.coeffs.shape != expect:
            raise ValueError(
                f"coefficient tensor shape {self.coeffs.shape} != slots+output {expect}"
            )

    @property
    def n_slots(self):
        return len(self.slot_shapes)


def ml_eval(T, args):
    """Full contraction of the coefficient tensor with the slot arguments.

    Each argument may carry leading batch axes in front of its slot shape;
    they broadcast against each other and lead the result. The slots are
    contracted one after the other, each as one stacked product.
    """
    if len(args) != T.n_slots:
        raise ValueError(f"expected {T.n_slots} arguments, got {len(args)}")
    args = [np.asarray(a, dtype=float) for a in args]
    for shape, a in zip(T.slot_shapes, args):
        if a.ndim < len(shape) or a.shape[a.ndim - len(shape):] != shape:
            raise ValueError(f"argument shape {a.shape} does not match slot {shape}")
    batch = np.broadcast_shapes(*(a.shape[: a.ndim - len(s)] for s, a in zip(T.slot_shapes, args)))
    n_batch = int(np.prod(batch))
    out = T.coeffs.reshape(1, -1)      # (batch, entries left)
    for shape, a in zip(T.slot_shapes, args):
        n = int(np.prod(shape))
        a = np.broadcast_to(a, batch + shape).reshape(n_batch, 1, n)
        out = (a @ out.reshape(len(out), n, -1))[:, 0]
    out = out.reshape(batch + T.output_shape)
    return float(out) if out.shape == () else out


def ml_norm(T):
    """Maximum absolute value over all coefficients."""
    return float(np.abs(T.coeffs).max()) if T.coeffs.size else 0.0


def ml_fix_slot(T, slot_index, c):
    """Contract one slot with a constant, yielding a form with one less slot."""
    c = np.asarray(c, dtype=float)
    if c.shape != T.slot_shapes[slot_index]:
        raise ValueError(f"constant shape {c.shape} does not match slot {slot_index}")
    start = sum(len(s) for s in T.slot_shapes[:slot_index])
    nd = len(T.slot_shapes[slot_index])
    coeffs = np.tensordot(
        c, np.moveaxis(T.coeffs, range(start, start + nd), range(nd)),
        axes=(list(range(nd)), list(range(nd))),
    )
    shapes = T.slot_shapes[:slot_index] + T.slot_shapes[slot_index + 1 :]
    return MultilinearForm(shapes, T.output_shape, coeffs)


def ml_from_function(fn, slot_shapes, output_shape=()):
    """Build the coefficient tensor of a multilinear map by basis enumeration."""
    slot_shapes = tuple(tuple(s) for s in slot_shapes)
    output_shape = tuple(output_shape)
    coeffs = np.zeros(sum(slot_shapes, ()) + output_shape)
    ranges = [list(itertools.product(*(range(d) for d in s))) for s in slot_shapes]
    for combo in itertools.product(*ranges):
        args = []
        for shape, idx in zip(slot_shapes, combo):
            e = np.zeros(shape)
            e[idx] = 1.0
            args.append(e)
        flat = sum(combo, ())
        coeffs[flat] = fn(*args)
    return MultilinearForm(slot_shapes, output_shape, coeffs)


def det_form(d):
    """d-linear form, symmetrized over slots, with T(A, ..., A) = det(A):
    the mean over slot orders p of det of the matrix whose row k is row k
    of argument p(k)."""
    if d not in (2, 3):
        raise ValueError("det_form supports d in {2, 3}")
    orders = list(itertools.permutations(range(d)))

    def mixed_det(*Ms):
        return np.linalg.det(np.array([[Ms[p[k]][k] for k in range(d)] for p in orders])).mean()

    return ml_from_function(mixed_det, [(d, d)] * d)


def _shifted_inverse(A):
    """(A + I)^{-1} and det(A + I) for one 2x2 matrix A or a stack (..., 2, 2),
    in closed form (`meshing._inverse_2x2`). Other shapes raise ValueError,
    a singular A + I anywhere in the stack np.linalg.LinAlgError."""
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (2, 2):
        raise ValueError(f"takes 2x2 matrices (..., 2, 2), not shape {A.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        Ginv, det = _inverse_2x2(A + np.eye(2))
    if np.any(det == 0.0):
        raise np.linalg.LinAlgError("A + I is singular")
    return Ginv, det


def deformation_tensor(A):
    """(A + I)^{-T} (A + I)^{-1} det(A + I) - I for the displacement gradient A,
    one 2x2 matrix or a stack (..., 2, 2) (`_shifted_inverse`)."""
    Ginv, det = _shifted_inverse(A)
    return np.swapaxes(Ginv, -1, -2) @ Ginv * det[..., None, None] - np.eye(2)


def neumann_tail(A):
    """(A + I)^{-1} - I, the sum of the series in `neumann_partial_sum`, for one
    2x2 matrix or a stack (..., 2, 2) (`_shifted_inverse`)."""
    return _shifted_inverse(A)[0] - np.eye(2)


def neumann_partial_sum(A, n_terms):
    """Partial sum of the alternating power series for (A + I)^{-1} - I, of one
    square matrix or of each matrix of a stack (..., d, d)."""
    A = np.asarray(A, dtype=float)
    out = np.zeros_like(A)
    P = np.eye(A.shape[-1])
    for i in range(1, n_terms + 1):
        P = P @ A
        out += (-1.0) ** i * P
    return out


def resolvent_identity_residual(A, B):
    """Relative mismatch of the factored identity for the resolvent difference.

    Compares the direct difference with -(A+I)^{-1} (A-B) (B+I)^{-1}: a float
    for one pair of 2x2 matrices, one value per pair for stacks (..., 2, 2).
    """
    tA, tB = neumann_tail(A), neumann_tail(B)
    lhs = tA - tB
    rhs = -(tA + np.eye(2)) @ (np.asarray(A, dtype=float) - B) @ (tB + np.eye(2))
    scale = np.maximum(np.abs(lhs).max(axis=(-2, -1)), 1e-300)
    res = np.abs(lhs - rhs).max(axis=(-2, -1)) / scale
    return float(res) if res.ndim == 0 else res


def comparison_decompose(T, us, cs, fixed=()):
    """Terms of the multilinear comparison T(u; v) - T(c; v).

    For m varying slots the difference expands into 2^m - 1 terms, one per
    nonempty subset S: the form evaluated with u_i - c_i on S and c_i off
    S (fixed trailing arguments v are passed through). Returns the list of
    evaluated terms; their sum equals ml_eval(T, u + v) - ml_eval(T, c + v).
    """
    m = len(us)
    if len(cs) != m:
        raise ValueError("need one constant per varying slot")
    terms = []
    diffs = [np.asarray(u, dtype=float) - np.asarray(c, dtype=float) for u, c in zip(us, cs)]
    for mask in range(1, 2**m):
        args = [
            diffs[i] if (mask >> i) & 1 else cs[i]
            for i in range(m)
        ]
        terms.append(ml_eval(T, list(args) + list(fixed)))
    return terms
