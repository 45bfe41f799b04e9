"""Orthogonal/unitary similarity: decision procedure and witness construction.

The decision is the constructive one: the tuples are orthogonally
(unitarily) equivalent iff the star-intertwiner space
{P : P X_i = Y_i P and P star(X_i) = star(Y_i) P} contains an invertible
element.  The search shared with ``gl_similar`` decides it.

From an invertible star-intertwiner P the witness is built as follows.
Writing G = P star(P), the two families of equations give
G Y_i = Y_i G and G star(Y_i) = star(Y_i) G, and star(G) = G.  Take H a
primary square root of G, found by one Denman-Beavers iteration in all
three star modes.  A primary root is a polynomial in G, so H commutes with
everything G commutes with.  Under the plain transpose every polynomial in
the symmetric G is symmetric, so H^t = H; over C that G is complex
symmetric, not Hermitian, and may have any nonzero spectrum.  Under the
conjugate transpose G is positive definite and H is its positive root, so
star(H) = H again.  Then O = H^{-1} P satisfies

    O star(O) = H^{-1} P star(P) H^{-1} = H^{-1} G H^{-1} = I
    O X_i star(O) = H^{-1} (P X_i star(P)) H^{-1}
                  = H^{-1} Y_i G H^{-1} = Y_i H H^{-1} = Y_i.

In rational mode an exact witness exists only when G is a scalar matrix
with a square scalar (O = P / sqrt(lambda)); otherwise the equivalence
verdict stays exact but the witness is recomputed in float64.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, WitnessConstructionError
from .fields import Field, StarMode
from .intertwiner import (DEFAULT_SAMPLE_BOUND, DEFAULT_TRIALS, IntertwinerBasis, _check_pair,
                          _decide_span, _search)
from .matrices import Matrix, MatrixTuple, _block, _from_raw, _hstack, _raw_product
from .words import (DEFAULT_BUDGET, FingerprintDiff, fingerprint, fingerprints_equal)


# -- inverse square root ------------------------------------------------------------

# Rotations e^{i theta} tried in turn, the iteration cap and the bound on
# max |Y Z - I| that ends the Denman-Beavers iteration.
_ROOT_ANGLES = (0.0, 0.5 * math.pi, -0.5 * math.pi, 0.25 * math.pi, -0.25 * math.pi)
_ROOT_STEPS = 50
_ROOT_TOL = 1e-10
# A float witness holds when max |O star(O) - I| <= WITNESS_TOL and
# max |O X_i star(O) - Y_i| <= WITNESS_TOL * max(1, max |X|, max |Y|).
WITNESS_TOL = 1e-8


def _inverse_root(g: np.ndarray) -> Optional[np.ndarray]:
    """A primary inverse square root of G, or None if no angle converges.

    Denman-Beavers (Higham, *Functions of Matrices*, 2008, ch. 6) on
    A = e^{i theta} G: Y -> A^{1/2} and Z -> A^{-1/2}, so e^{i theta/2} Z
    squares to G^{-1} and is a polynomial in G.  theta = 0 serves a positive
    definite G; a complex G may need its spectrum turned off the negative
    real axis first.  Since Y = A Z, the stopping test on Y Z - I = A Z^2 - I
    is relative to every eigenvalue, which a test of Y^2 - A against max |G|
    is not on an ill-conditioned G; one step past it gives Z to full
    precision.
    """
    eye = np.eye(len(g))
    for theta in _ROOT_ANGLES if np.iscomplexobj(g) else _ROOT_ANGLES[:1]:
        a = g * cmath.exp(1j * theta) if theta else g
        y, z = a, eye
        try:
            for _ in range(_ROOT_STEPS):
                y, z = (y + np.linalg.inv(z)) / 2, (z + np.linalg.inv(y)) / 2
                if np.max(np.abs(y @ z - eye)) <= _ROOT_TOL:
                    z = (z + np.linalg.inv(y)) / 2
                    return z * cmath.exp(0.5j * theta) if theta else z
        except np.linalg.LinAlgError:
            pass
    return None


# -- fingerprint-level equivalence ----------------------------------------------

def specht_equivalent(x: MatrixTuple, y: MatrixTuple, max_degree: Optional[int] = None,
                      budget: int = DEFAULT_BUDGET):
    """Starred-fingerprint equality up to max_degree (default n^2).

    Necessary for orthogonal similarity at any degree; sufficient at n^2
    over the fields where trace words separate orbits.  Returns
    (equal, first differing word or None).
    """
    _check_pair(x, y)
    d = max_degree if max_degree is not None else x.n * x.n
    fx = fingerprint(x, d, include_star=True, budget=budget)
    fy = fingerprint(y, d, include_star=True, budget=budget)
    return fingerprints_equal(fx, fy)


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
    mags = [abs(v) / m.denom for m in mats for v in m.values]
    return math.nan if any(a != a for a in mags) else max(mags, default=0.0)


def _witness_residuals(o: Matrix, x: MatrixTuple, y: MatrixTuple):
    """(max |O star(O) - I|, max over i of max |O X_i star(O) - Y_i|), from
    O star(O), O [X_1 | X_2 | ...] and [O X_1; O X_2; ...] star(O), whose
    blocks are the 2d + 1 separate products (exactly for the exact kind,
    up to rounding for the float kinds)."""
    field, n, d = o.field, o.rows, x.d
    ostar = o.star()
    r_orth = _max_magnitude([o * ostar - Matrix.identity(field, n)])
    ox = _raw_product(field, o.values, _hstack([xi.values for xi in x.matrices], n), n, n * d)
    oxo = _raw_product(field, [v for i in range(d) for v in _block(ox, n * d, 0, i, n)],
                       ostar.values, n, n)
    r_conj = _max_magnitude([
        _from_raw(field, n, n, oxo[i * n * n:(i + 1) * n * n], o.denom * xi.denom * ostar.denom) - yi
        for i, (xi, yi) in enumerate(zip(x.matrices, y.matrices))])
    return r_orth, r_conj


def _rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """The rational root of value > 0 (for P star(P) = value I and P
    invertible, value is the squared length of a row of P), or None."""
    p, q = value.numerator, value.denominator
    sp, sq = math.isqrt(p), math.isqrt(q)
    if sp * sp == p and sq * sq == q:
        return Fraction(sp, sq)
    return None


def _scalar_of(g: Matrix) -> Optional[Fraction]:
    lam, step = g.values[0], g.cols + 1
    if any(v != (lam if k % step == 0 else 0) for k, v in enumerate(g.values)):
        return None
    return Fraction(lam, g.denom)


def _construct_float_witness(p: Matrix, x: MatrixTuple, y: MatrixTuple):
    """H^{-1} P for float tuples; raises on ill-conditioning or residual misses."""
    pn = p.to_numpy()
    amax = float(np.max(np.abs(pn)))
    if amax == 0.0:
        raise WitnessConstructionError("zero intertwiner", p)
    pn = pn / amax
    field = x.field
    hinv = _inverse_root(pn @ _np_star(pn, field))
    if hinv is None:
        raise WitnessConstructionError("intertwiner is numerically singular", p)
    o = Matrix.from_numpy(field, hinv @ pn)
    r_orth, r_conj = _witness_residuals(o, x, y)
    scale = max(1.0, x.maxabs(), y.maxabs())
    if not (r_orth <= WITNESS_TOL and r_conj <= WITNESS_TOL * scale):  # a NaN residual fails
        raise WitnessConstructionError(
            "witness residuals too large (orth %.3g, conj %.3g)" % (r_orth, r_conj), p)
    return OrthogonalWitness(o, r_orth, r_conj)


def _np_star(a: np.ndarray, field: Field):
    if field.star_mode is StarMode.CONJUGATE_TRANSPOSE:
        return a.conj().T
    return a.T


def orthogonal_witness(x: MatrixTuple, y: MatrixTuple, seed: int = 0,
                       trials: int = DEFAULT_TRIALS,
                       sample_bound: int = DEFAULT_SAMPLE_BOUND) -> OrthVerdict:
    """Decide simultaneous orthogonal/unitary similarity and build a witness O.

    A positive verdict always rests on an invertible star-intertwiner; the
    returned O satisfies O star(O) = I and O X_i star(O) = Y_i within the
    reported residuals (exactly, in the rational scalar-square case).
    Negatives follow ``gl_similar``, on the starred space.
    """
    basis, p, proved, detail = _search(x, y, True, seed, trials, sample_bound)
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
            p, basis, x.astype(Field.real64()), y.astype(Field.real64()), seed, sample_bound)
        return OrthVerdict("exact_witness_unavailable", witness, p,
                           "equivalence certified exactly; witness computed in float64")

    witness = _float_witness_with_retries(p, basis, x, y, seed, sample_bound)
    return OrthVerdict("equivalent", witness, p, "verified float witness")


def _float_witness_with_retries(p: Matrix, basis: IntertwinerBasis,
                                xf: MatrixTuple, yf: MatrixTuple, seed: int, sample_bound: int):
    """The witness from P or, failing that, from up to three retries: the
    first invertible of five draws at seeds seed+1..seed+3 (``_decide_span``),
    each drawn only after the one before it has failed; raises the last
    ``WitnessConstructionError``.  An ill-conditioned P fails (cond P near
    1e5 leaves residuals above 1e-8) where another draw from the same span
    succeeds.  Candidates are cast to the kind of ``xf``: an exact one to
    float64, a float one as it is."""
    last = None
    for attempt in range(4):
        cand = p if attempt == 0 else _decide_span(basis, seed + attempt, 5, sample_bound)[0]
        if cand is None:
            continue
        try:
            return _construct_float_witness(cand.astype(xf.field), xf, yf)
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
                          seed: int = 0, budget: int = DEFAULT_BUDGET) -> SpechtReport:
    """Fingerprint equality vs. witness existence, with a consistency flag.

    The flag records whether the pair respects "fingerprints equal at
    degree n^2 implies a witness exists"; the bundled complex
    plain-transpose pair is the documented counterexample that fails it.
    """
    _check_pair(x, y)
    d = max_degree if max_degree is not None else x.n * x.n
    note = []
    try:
        equal, diff = specht_equivalent(x, y, d, budget=budget)
    except BudgetExceededError:
        equal, diff = None, None
        note.append("fingerprint comparison skipped (budget)")
    try:
        verdict = orthogonal_witness(x, y, seed=seed)
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
