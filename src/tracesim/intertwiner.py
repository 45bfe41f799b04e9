"""Intertwiner spaces and GL-similarity of matrix tuples.

The space {P : P X_i = Y_i P for all i} (optionally with the starred
equations P star(X_i) = star(Y_i) P as well) is linear in the n^2 entries
of P; its basis comes from one nullspace computation.  The tuples are
simultaneously similar iff that space contains an invertible element, and
any such P is a certified witness: Y_i = P X_i P^{-1}.

Invertible elements are found by polynomial identity testing on the
determinant restricted to the span:

* Monte Carlo: seeded integer coefficient vectors in {-S..S}^k; by
  Schwartz-Zippel a nonzero determinant polynomial survives each trial
  with failure probability <= n/(2S+1).  Found witnesses are certified
  (determinant recomputed exactly in rational mode), so only the negative
  answer is probabilistic.
* Deterministic: the full grid {0..n}^k.  det restricted to the span has
  degree <= n in each coefficient, so vanishing on the grid forces the
  identically-zero polynomial; exhausting the grid is a proof that no
  invertible element exists.

``_search`` runs this decision for GL similarity here and, on the starred
space, for orthogonal similarity in ``orthogonal``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ShapeError
from .fields import Field
from .matrices import (Matrix, MatrixTuple, _clear_denominators, _det_int, _int_matrices,
                       _int_nullspace, _require_exact_tol)
from .words import fingerprint, fingerprints_equal

DEFAULT_TRIALS = 20
DEFAULT_SAMPLE_BOUND = 10 ** 6
DEFAULT_GRID_BUDGET = 10 ** 7
_FLOAT_DET_REL_TOL = 1e-9


@dataclass(frozen=True)
class IntertwinerBasis:
    n: int
    with_star: bool
    field: Field
    basis: tuple  # linearly independent n x n matrices

    @property
    def dim(self) -> int:
        return len(self.basis)

    def combo(self, coeffs) -> Matrix:
        """Linear combination sum_j coeffs[j] * basis[j]."""
        if len(coeffs) != self.dim:
            raise ShapeError("expected %d coefficients" % self.dim)
        acc = Matrix.zeros(self.field, self.n, self.n)
        for c, b in zip(coeffs, self.basis):
            if c:
                acc = acc + b.scale(c)
        return acc


def _check_pair(x: MatrixTuple, y: MatrixTuple):
    x.field.require_same(y.field)
    if x.n != y.n or x.d != y.d:
        raise ShapeError("tuple shapes differ: (n=%d,d=%d) vs (n=%d,d=%d)"
                         % (x.n, x.d, y.n, y.d))


def intertwiner_basis(x: MatrixTuple, y: MatrixTuple, with_star: bool,
                      tol: Optional[float] = None) -> IntertwinerBasis:
    """Nullspace basis of the stacked linear system P X_i = Y_i P (+ stars).

    P is flattened row-major into n^2 unknowns; each matrix equation
    contributes n^2 rows.  The returned matrices satisfy the defining
    equations exactly in rational mode.
    """
    _check_pair(x, y)
    n = x.n
    if x.field.is_exact:
        _require_exact_tol(tol)
        mats, _ = _int_matrices(x.matrices + y.matrices)
        xs, ys = mats[:x.d], mats[x.d:]
        if with_star:  # the exact star is the transpose
            xs += [[list(c) for c in zip(*m)] for m in xs]
            ys += [[list(c) for c in zip(*m)] for m in ys]
        kernel = _int_nullspace(_system_rows(xs, ys, n, 0), n * n)
        basis = tuple(Matrix(x.field, n, n, tuple(v)) for v in kernel)
    else:
        xs = [m.row_list() for m in x.matrices]
        ys = [m.row_list() for m in y.matrices]
        if with_star:
            xs += [m.row_list() for m in x.stars()]
            ys += [m.row_list() for m in y.stars()]
        rows = _system_rows(xs, ys, n, x.field.zero())
        system = Matrix(x.field, len(rows), n * n, tuple(e for row in rows for e in row))
        kernel = system.nullspace(tol)
        basis = tuple(Matrix(x.field, n, n, v.entries) for v in kernel)
    return IntertwinerBasis(n, with_star, x.field, basis)


def _system_rows(xs, ys, n: int, zero) -> list:
    """Rows of P X_i - Y_i P = 0 over the row-major entries of P.

    ``xs`` and ``ys`` hold the matrices as row lists; each pair contributes
    n^2 rows.
    """
    rows = []
    for xi, yi in zip(xs, ys):
        for a in range(n):
            for b in range(n):
                row = [zero] * (n * n)
                for s in range(n):
                    row[a * n + s] = row[a * n + s] + xi[s][b]
                for r in range(n):
                    row[r * n + b] = row[r * n + b] - yi[a][r]
                rows.append(row)
    return rows


# -- invertible element search -------------------------------------------------

def _int_basis(b: IntertwinerBasis):
    """Common-denominator integer copies of the basis (rational mode).

    det(sum c_j B_j) != 0 iff det(sum c_j B'_j) != 0 since B' = L*B for one
    global L > 0.
    """
    ints, _ = _clear_denominators([e for m in b.basis for e in m.entries])
    nn = b.n * b.n
    return [ints[k:k + nn] for k in range(0, len(ints), nn)]


def _exact_combo_invertible(int_basis, coeffs, n) -> bool:
    flat = [0] * (n * n)
    for c, vec in zip(coeffs, int_basis):
        if c:
            for t in range(n * n):
                flat[t] += c * vec[t]
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    return _det_int(rows) != 0


def _float_det_ok(dets, amaxes, n) -> np.ndarray:
    thresh = _FLOAT_DET_REL_TOL * np.maximum(amaxes, 1e-300) ** n
    return np.abs(dets) > thresh


def find_invertible(b: IntertwinerBasis, seed: int = 0, trials: int = DEFAULT_TRIALS,
                    sample_bound: int = DEFAULT_SAMPLE_BOUND,
                    budget: int = DEFAULT_GRID_BUDGET) -> Optional[Matrix]:
    """Search the span of the basis for an invertible element.

    trials > 0: seeded Monte Carlo over {-sample_bound..sample_bound}^dim;
    returns None after the given number of misses (inconclusive).
    trials == 0: deterministic sweep of the grid {0..n}^dim; None is then a
    proof that every element of the span is singular.
    """
    k = b.dim
    n = b.n
    if k == 0:
        return None
    exact = b.field.is_exact
    if trials > 0:
        rng = random.Random(seed)
        int_basis = _int_basis(b) if exact else None
        stack = None if exact else np.stack([m.to_numpy() for m in b.basis])
        for _ in range(trials):
            coeffs = [rng.randint(-sample_bound, sample_bound) for _ in range(k)]
            if exact:
                if _exact_combo_invertible(int_basis, coeffs, n):
                    return b.combo([Fraction(c) for c in coeffs])
            else:
                p = np.tensordot(np.array(coeffs, dtype=float), stack, axes=1)
                amax = np.max(np.abs(p))
                if amax > 0 and _float_det_ok(np.linalg.det(p), amax, n):
                    return b.combo(coeffs)
        return None

    # deterministic grid
    points = (n + 1) ** k
    if points > budget:
        raise BudgetExceededError(
            "deterministic invertibility grid exceeds budget: (%d+1)^%d > %d"
            % (n, k, budget))
    if exact:
        int_basis = _int_basis(b)
        for coeffs in itertools.product(range(n + 1), repeat=k):
            if _exact_combo_invertible(int_basis, coeffs, n):
                return b.combo([Fraction(c) for c in coeffs])
        return None
    stack = np.stack([m.to_numpy() for m in b.basis])
    chunk = 32768
    grid = itertools.product(range(n + 1), repeat=k)
    while True:
        block = list(itertools.islice(grid, chunk))
        if not block:
            return None
        cs = np.array(block, dtype=float)
        ps = np.tensordot(cs, stack, axes=1)
        amaxes = np.max(np.abs(ps), axis=(1, 2))
        dets = np.linalg.det(ps)
        ok = _float_det_ok(dets, amaxes, n) & (amaxes > 0)
        hits = np.nonzero(ok)[0]
        if hits.size:
            return b.combo(block[int(hits[0])])


# -- GL similarity --------------------------------------------------------------

@dataclass(frozen=True)
class GLVerdict:
    verdict: str  # similar | not_similar | not_similar_probable
    witness: Optional[Matrix]
    detail: str

    @property
    def is_similar(self) -> bool:
        return self.verdict == "similar"


def _power_traces(m: Matrix, upto: int) -> list:
    """tr(m^k) for k = 1..upto (upto >= 1); the exact kind multiplies L m in
    ints, L clearing the denominators of m."""
    if not m.field.is_exact:
        out = []
        acc = m
        for _ in range(upto):
            out.append(acc.trace())
            acc = acc * m
        return out
    n = m.rows
    (rows,), denom = _int_matrices([m])
    cols = [list(c) for c in zip(*rows)]
    out = [Fraction(sum(rows[i][i] for i in range(n)), denom)]
    acc = rows  # (L m)^(k-1); the last factor is folded into the trace
    for k in range(2, upto + 1):
        out.append(Fraction(sum(sum(map(mul, row, col)) for row, col in zip(acc, cols)),
                            denom ** k))
        if k < upto:
            acc = [[sum(map(mul, row, col)) for col in cols] for row in acc]
    return out


def _filter_not_similar(x: MatrixTuple, y: MatrixTuple) -> Optional[str]:
    """Cheap certified similarity invariants; a difference proves not-similar.

    Float comparisons use a deliberately generous threshold so the filter
    can only fire on genuine gaps, never on rounding noise.
    """
    exact = x.field.is_exact
    scale = max(1.0, x.maxabs(), y.maxabs())
    for i, (xi, yi) in enumerate(zip(x.matrices, y.matrices)):
        rx, ry = xi.rank(), yi.rank()
        if rx != ry:
            return "rank of component %d differs: %d vs %d" % (i + 1, rx, ry)
        px, py = _power_traces(xi, x.n), _power_traces(yi, x.n)
        power = 1.0  # scale^kpow by repeated products: overflows to inf, not raise
        for kpow, (a, b) in enumerate(zip(px, py), start=1):
            power *= scale
            differs = (a != b) if exact else abs(a - b) > 1e-6 * power * x.n
            if differs:
                return "trace of component %d power %d differs" % (i + 1, kpow)
    fx = fingerprint(x, 2, include_star=False)
    fy = fingerprint(y, 2, include_star=False)
    equal, diff = fingerprints_equal(fx, fy, tol=1e-6)
    if not equal:
        return "pure trace word differs (%s)" % diff
    return None


def _verify_intertwiner(p: Matrix, x: MatrixTuple, y: MatrixTuple, with_star: bool) -> bool:
    tol = 0.0 if x.field.is_exact else 1e-10 * max(1.0, p.maxabs()) * max(1.0, x.maxabs())
    for xi, yi in zip(x.matrices, y.matrices):
        if not (p * xi - yi * p).is_zero(tol):
            return False
    if with_star:
        for xi, yi in zip(x.stars(), y.stars()):
            if not (p * xi - yi * p).is_zero(tol):
                return False
    return True


def _search(x: MatrixTuple, y: MatrixTuple, with_star: bool, mode: str, seed: int,
            trials: int, sample_bound: int, budget: int, reject):
    """The search shared by GL and orthogonal similarity.

    Checks the pair and the mode, then runs ``reject`` (a certified filter
    returning a reason or None, skipped when None), then looks for an
    invertible element of the intertwiner space, starred when ``with_star``.
    Returns (basis, P or None, proof, detail).  P is a candidate still to be
    verified; without one, ``proof`` says whether its absence is certain and
    ``detail`` says why.  The basis is None when the filter decided.
    """
    _check_pair(x, y)
    if mode not in ("auto", "deterministic", "monte_carlo"):
        raise ShapeError("unknown mode %r" % mode)
    reason = reject() if reject is not None else None
    if reason is not None:
        return None, None, True, reason
    what = "star-intertwiner" if with_star else "intertwiner"
    basis = intertwiner_basis(x, y, with_star=with_star)
    if basis.dim == 0:
        return basis, None, True, "%s space is zero" % what
    if mode == "auto":
        mode = "deterministic" if (x.n + 1) ** basis.dim <= budget else "monte_carlo"
    if mode == "deterministic":
        p = find_invertible(basis, trials=0, budget=budget)
        return basis, p, True, "determinant vanishes on the full coefficient grid"
    p = find_invertible(basis, seed=seed, trials=trials, sample_bound=sample_bound)
    return basis, p, False, "%d Monte Carlo trials found no invertible %s" % (trials, what)


def gl_similar(x: MatrixTuple, y: MatrixTuple, mode: str = "auto", seed: int = 0,
               trials: int = DEFAULT_TRIALS, sample_bound: int = DEFAULT_SAMPLE_BOUND,
               budget: int = DEFAULT_GRID_BUDGET, filters: bool = True) -> GLVerdict:
    """Decide simultaneous similarity; a `similar` verdict carries a verified P.

    mode 'deterministic' sweeps the coefficient grid (complete; may refuse
    on budget), 'monte_carlo' is probabilistic on the negative side only,
    'auto' picks deterministic when the grid fits the budget.
    """
    reject = (lambda: _filter_not_similar(x, y)) if filters else None
    _, p, proof, detail = _search(x, y, False, mode, seed, trials, sample_bound, budget,
                                  reject)
    if p is None:
        return GLVerdict("not_similar" if proof else "not_similar_probable", None, detail)
    if not _verify_intertwiner(p, x, y, with_star=False):
        return GLVerdict("not_similar_probable", None,
                         "candidate witness failed verification")
    return GLVerdict("similar", p, "verified intertwiner witness")
