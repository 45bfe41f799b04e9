"""Orthogonal/unitary similarity: decision procedure and witness construction.

The decision is the constructive one: the tuples are orthogonally
(unitarily) equivalent iff the star-intertwiner space
{P : P X_i = Y_i P and P star(X_i) = star(Y_i) P} contains an invertible
element.  The search shared with ``gl_similar`` decides it, with the
starred words of degree <= 2 as its certified filter.

From an invertible star-intertwiner P the witness is built as follows.
Writing G = P star(P), the two families of equations give
G Y_i = Y_i G and G star(Y_i) = star(Y_i) G.  G is symmetric (Hermitian)
positive definite, so it has a symmetric square root H commuting with
everything G commutes with, and O = H^{-1} P satisfies

    O star(O) = H^{-1} P star(P) H^{-1} = H^{-1} G H^{-1} = I
    O X_i star(O) = H^{-1} (P X_i star(P)) H^{-1}
                  = H^{-1} Y_i G H^{-1} = Y_i H H^{-1} = Y_i.

In rational mode an exact witness exists only when G is a scalar matrix
with a square scalar (O = P / sqrt(lambda)); otherwise the equivalence
verdict stays exact but the witness is recomputed in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (BudgetExceededError, ConvergenceError, IndefiniteMatrixError,
                     KindMismatchError, NonSymmetricError, ShapeError,
                     WitnessConstructionError)
from .fields import Field, StarMode, abs_value
from .intertwiner import (DEFAULT_SAMPLE_BOUND, DEFAULT_TRIALS, IntertwinerBasis, _check_pair,
                          _search, find_invertible)
from .matrices import Matrix, MatrixTuple
from .words import (DEFAULT_BUDGET, FingerprintDiff, fingerprint, fingerprints_equal)


# -- dense symmetric/Hermitian eigensolver --------------------------------------

def _off_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def _jacobi_np(a: np.ndarray, tol: float, max_sweeps: int):
    """Cyclic Jacobi on a Hermitian array; returns (V, eigenvalues)."""
    n = a.shape[0]
    complex_input = np.iscomplexobj(a)
    a = a.astype(np.complex128 if complex_input else np.float64).copy()
    v = np.eye(n, dtype=a.dtype)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return v, np.zeros(n)
    skip = tol * norm / (n * n)
    for _ in range(max_sweeps):
        if _off_norm(a) <= tol * norm:
            return v, np.real(np.diag(a)).copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                m = abs(apq)
                if m <= skip:
                    continue
                alpha = apq / m
                tau = (np.real(a[q, q]) - np.real(a[p, p])) / (2.0 * m)
                if tau >= 0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rowp = c * a[p, :] - s * alpha * a[q, :]
                rowq = s * np.conj(alpha) * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rowp, rowq
                colp = c * a[:, p] - s * np.conj(alpha) * a[:, q]
                colq = s * alpha * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = colp, colq
                vp = c * v[:, p] - s * np.conj(alpha) * v[:, q]
                vq = s * alpha * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = vp, vq
    if _off_norm(a) <= tol * norm:
        return v, np.real(np.diag(a)).copy()
    raise ConvergenceError("Jacobi sweeps did not converge within %d sweeps" % max_sweeps)


def _require_float(m: Matrix, what: str):
    if m.field.is_exact:
        raise KindMismatchError("%s works on float kinds; convert with astype first" % what)


def _check_hermitian(a: np.ndarray, tol: float, scale: float):
    gap = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if gap > max(tol, 1e-12) * max(1.0, scale):
        raise NonSymmetricError(
            "input is not symmetric/Hermitian within tolerance (gap %.3g)" % gap)


def jacobi_eig(s: Matrix, tol: float = 1e-12, max_sweeps: int = 100):
    """Rotations-based eigendecomposition of a symmetric/Hermitian matrix.

    Returns (V, eigenvalues) with V * star(V) = I and star(V) * S * V
    diagonal within tol * ||S||_F.
    """
    _require_float(s, "jacobi_eig")
    if not s.is_square:
        raise ShapeError("eigendecomposition of a non-square matrix")
    a = s.to_numpy()
    _check_hermitian(a, tol, s.maxabs())
    v, lam = _jacobi_np(a, tol, max_sweeps)
    return Matrix.from_numpy(s.field, v), [float(x) for x in lam]


def sqrt_spd(s: Matrix, tol: float = 1e-12) -> Matrix:
    """Symmetric/Hermitian square root H of a positive definite S (H*H = S).

    tol is relative to the largest eigenvalue; anything not safely positive
    definite is rejected.
    """
    _require_float(s, "sqrt_spd")
    v, lam = jacobi_eig(s, tol=min(tol, 1e-12))
    top = max(abs(x) for x in lam) if lam else 0.0
    if top == 0.0 or min(lam) <= tol * top:
        raise IndefiniteMatrixError("matrix is not positive definite at tolerance")
    vn = v.to_numpy()
    h = (vn * np.sqrt(np.array(lam))) @ vn.conj().T
    h = (h + h.conj().T) / 2.0
    return Matrix.from_numpy(s.field, h)


# -- fingerprint-level equivalence ----------------------------------------------

def specht_equivalent(x: MatrixTuple, y: MatrixTuple, max_degree: Optional[int] = None,
                      tol: float = 1e-8, budget: int = DEFAULT_BUDGET):
    """Starred-fingerprint equality up to max_degree (default n^2).

    Necessary for orthogonal similarity at any degree; sufficient at n^2
    over the fields where trace words separate orbits.  Returns
    (equal, first differing word or None).
    """
    _check_pair(x, y)
    d = max_degree if max_degree is not None else x.n * x.n
    fx = fingerprint(x, d, include_star=True, budget=budget)
    fy = fingerprint(y, d, include_star=True, budget=budget)
    return fingerprints_equal(fx, fy, tol=tol)


# -- witness construction ---------------------------------------------------------

@dataclass(frozen=True)
class OrthogonalWitness:
    o: Matrix
    residual_orth: float
    residual_conj: float


@dataclass(frozen=True)
class OrthVerdict:
    verdict: str  # equivalent | not_equivalent | not_equivalent_probable | exact_witness_unavailable
    witness: Optional[OrthogonalWitness]
    intertwiner: Optional[Matrix]
    detail: str

    @property
    def is_equivalent(self) -> bool:
        return self.verdict in ("equivalent", "exact_witness_unavailable")


def _max_magnitude(mats) -> float:
    """Largest entry magnitude over the matrices (0.0 for none); NaN as soon
    as any entry is NaN, which a plain ``max`` would skip."""
    mags = [abs_value(v) for m in mats for v in m.entries]
    return math.nan if any(a != a for a in mags) else max(mags, default=0.0)


def _witness_residuals(o: Matrix, x: MatrixTuple, y: MatrixTuple):
    """(max |O star(O) - I|, max over i of max |O X_i star(O) - Y_i|)."""
    eye = Matrix.identity(o.field, o.rows)
    ostar = o.star()
    r_orth = _max_magnitude([o * ostar - eye])
    r_conj = _max_magnitude([o * xi * ostar - yi for xi, yi in zip(x.matrices, y.matrices)])
    return r_orth, r_conj


def _rational_sqrt(value: Fraction) -> Optional[Fraction]:
    if value <= 0:
        return None
    p, q = value.numerator, value.denominator
    sp, sq = math.isqrt(p), math.isqrt(q)
    if sp * sp == p and sq * sq == q:
        return Fraction(sp, sq)
    return None


def _scalar_of(g: Matrix) -> Optional[Fraction]:
    lam = g.at(0, 0)
    n = g.rows
    for i in range(n):
        for j in range(n):
            if g.at(i, j) != (lam if i == j else 0):
                return None
    return lam


def _construct_float_witness(p: Matrix, x: MatrixTuple, y: MatrixTuple, tol: float):
    """H^{-1} P for float tuples; raises on ill-conditioning or residual misses."""
    pn = p.to_numpy()
    amax = float(np.max(np.abs(pn)))
    if amax == 0.0:
        raise WitnessConstructionError("zero intertwiner", p)
    pn = pn / amax
    field = x.field
    g = pn @ _np_star(pn, field)
    if field.is_complex and field.star_mode is StarMode.TRANSPOSE:
        # P P^t is complex symmetric; the square-root route needs Hermitian.
        if float(np.max(np.abs(g.imag))) > 1e-9 * max(1.0, float(np.max(np.abs(g)))):
            raise WitnessConstructionError(
                "witness construction unavailable: P P^t is not Hermitian "
                "in complex transpose mode", p)
        g = g.real
    v, lam = _jacobi_np(np.asarray(g), 1e-13, 200)
    top = max(abs(float(lv)) for lv in lam)
    if top == 0.0 or min(lam) <= 1e-13 * top:
        raise WitnessConstructionError("intertwiner is numerically singular", p)
    hinv = (v / np.sqrt(np.array(lam))) @ v.conj().T
    o = Matrix.from_numpy(field, hinv @ pn)
    r_orth, r_conj = _witness_residuals(o, x, y)
    scale = max(1.0, x.maxabs(), y.maxabs())
    if not (r_orth <= tol and r_conj <= tol * scale):  # a NaN residual fails
        raise WitnessConstructionError(
            "witness residuals too large (orth %.3g, conj %.3g)" % (r_orth, r_conj), p)
    return OrthogonalWitness(o, r_orth, r_conj)


def _np_star(a: np.ndarray, field: Field):
    if field.star_mode is StarMode.CONJUGATE_TRANSPOSE:
        return a.conj().T
    return a.T


def orthogonal_witness(x: MatrixTuple, y: MatrixTuple, seed: int = 0, tol: float = 1e-8,
                       filters: bool = True, trials: int = DEFAULT_TRIALS,
                       sample_bound: int = DEFAULT_SAMPLE_BOUND) -> OrthVerdict:
    """Decide simultaneous orthogonal/unitary similarity and build a witness O.

    A positive verdict always rests on an invertible star-intertwiner; the
    returned O satisfies O star(O) = I and O X_i star(O) = Y_i within the
    reported residuals (exactly, in the rational scalar-square case).
    Negatives follow ``gl_similar``, on the starred space and words.
    """
    basis, p, proved, detail = _search(x, y, True, seed, trials, sample_bound, filters)
    if p is None:
        verdict = "not_equivalent" if proved else "not_equivalent_probable"
        return OrthVerdict(verdict, None, None, detail)
    if x.field.is_exact:
        g = p * p.star()
        lam = _scalar_of(g)
        if lam is not None:
            root = _rational_sqrt(lam)
            if root is not None:
                o = p.scale(1 / root)
                r_orth, r_conj = _witness_residuals(o, x, y)
                if r_orth == 0.0 and r_conj == 0.0:
                    return OrthVerdict("equivalent", OrthogonalWitness(o, 0.0, 0.0), p,
                                       "exact witness (scalar P star(P))")
        witness = _float_witness_with_retries(
            p, basis, x.astype(Field.real64()), y.astype(Field.real64()),
            tol, seed, sample_bound)
        return OrthVerdict("exact_witness_unavailable", witness, p,
                           "equivalence certified exactly; witness computed in float64")

    witness = _float_witness_with_retries(p, basis, x, y, tol, seed, sample_bound)
    return OrthVerdict("equivalent", witness, p, "verified float witness")


def _float_witness_with_retries(p: Matrix, basis: IntertwinerBasis,
                                xf: MatrixTuple, yf: MatrixTuple, tol: float,
                                seed: int, sample_bound: int):
    """The witness from P or, failing that, from up to three Monte Carlo
    retries (seeds seed+1..seed+3), each drawn only after the one before it
    has failed; raises the last ``WitnessConstructionError``.  Candidates are
    cast to the kind of ``xf``: an exact one to float64, a float one as it is."""
    last = None
    for attempt in range(4):
        cand = p if attempt == 0 else find_invertible(basis, seed=seed + attempt, trials=5,
                                                      sample_bound=sample_bound)
        if cand is None:
            continue
        try:
            return _construct_float_witness(cand.astype(xf.field), xf, yf, tol)
        except WitnessConstructionError as exc:
            last = exc
    raise last


# -- combined report ---------------------------------------------------------------

@dataclass(frozen=True)
class SpechtReport:
    degree_bound: int
    fingerprints_equal: Optional[bool]  # None = skipped (budget)
    first_diff: Optional[FingerprintDiff]
    verdict: OrthVerdict
    consistent: bool
    note: str


def specht_property_check(x: MatrixTuple, y: MatrixTuple, max_degree: Optional[int] = None,
                          seed: int = 0, tol: float = 1e-8,
                          budget: int = DEFAULT_BUDGET) -> SpechtReport:
    """Fingerprint equality vs. witness existence, with a consistency flag.

    The flag records whether the pair respects "fingerprints equal at
    degree n^2 implies a witness exists"; the bundled complex
    plain-transpose pair is the documented counterexample that fails it.
    """
    _check_pair(x, y)
    d = max_degree if max_degree is not None else x.n * x.n
    note = []
    try:
        equal, diff = specht_equivalent(x, y, d, tol=tol, budget=budget)
    except BudgetExceededError:
        equal, diff = None, None
        note.append("fingerprint comparison skipped (budget)")
    try:
        verdict = orthogonal_witness(x, y, seed=seed, tol=tol)
    except WitnessConstructionError as exc:
        verdict = OrthVerdict("equivalent", None, exc.intertwiner,
                              "witness construction failed: %s" % exc)
        note.append("witness construction failed")
    consistent = True
    if equal is True and d >= x.n * x.n and not verdict.is_equivalent:
        consistent = False
        note.append("trace words up to n^2 agree yet no witness exists "
                    "(star map too weak to separate)")
    if equal is False and verdict.is_equivalent:
        consistent = False
        note.append("witness exists but fingerprints differ")
    return SpechtReport(d, equal, diff, verdict, consistent, "; ".join(note))
