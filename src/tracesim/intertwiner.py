"""Intertwiner spaces and GL-similarity of matrix tuples.

The space {P : P X_i = Y_i P for all i} (optionally with the starred
equations P star(X_i) = star(Y_i) P as well) is linear in the n^2 entries
of P.  The tuples are simultaneously similar iff that space contains an
invertible element, and any such P is a certified witness:
Y_i = P X_i P^{-1}.

The exact kind builds the space in stages.  P X_1 = Y_1 P is solved
through Krylov chains of X_1: standard vectors v_1..v_r are taken in order
while they lie outside the span so far, and each chain
v_i, X_1 v_i, .., X_1^(m_i - 1) v_i grows until its next vector falls into
the span, so the chains form a basis K of Q^n (r = 1 when X_1 is cyclic).
P is fixed by the images w_i = P v_i, because P X_1^t v_i = Y_1^t w_i, and
P X_1 = Y_1 P holds iff each tail relation X_1^(m_i) v_i = sum c X_1^t v_l
is matched by Y_1^(m_i) w_i = sum c Y_1^t w_l: n r equations in the n r
entries of the w_i, in place of n^2 in n^2 (``_exact_intertwiners`` has the
argument).  Each later equation, starred ones included, is solved only
inside the kernel found so far, as n^2 equations in its k coefficients (the
residuals P_j X_i - Y_i P_j of the basis), and the work stops once the
kernel is zero.  The final basis is brought to the reduced form of the
stacked system, so it does not depend on the chains or the staging.  The
float kinds stack all equations into one numpy system, since restricting
under float pivot thresholds would change which directions count as kernel.

Invertible elements are found by polynomial identity testing on the
determinant restricted to the span:

* Monte Carlo: seeded integer coefficient vectors in {-S..S}^k; by
  Schwartz-Zippel a nonzero determinant polynomial survives each trial
  with failure probability <= n/(2S+1).  Found witnesses are certified
  (determinant recomputed exactly in rational mode), so only the negative
  answer is probabilistic.
* Deterministic: the degree-n coefficient simplex
  {a in N^k : a_1 + ... + a_k = n}, C(n+k-1, n) points.  det restricted
  to the span is homogeneous of degree n, and the simplex hits every
  nonzero homogeneous polynomial of degree n (see ``find_invertible``), so
  exhausting it is a proof that no invertible element exists.

``_search`` runs this decision for GL similarity here and, on the starred
space, for orthogonal similarity in ``orthogonal``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ShapeError
from .fields import Field
from .matrices import (Matrix, MatrixTuple, _clear_denominators, _det_int, _float_kernel,
                       _float_tol, _fractions, _gauss_jordan_int, _int_kernel, _int_matrices,
                       _power_traces, _require_exact_tol)
from .words import fingerprint, fingerprints_equal

DEFAULT_TRIALS = 20
DEFAULT_SAMPLE_BOUND = 10 ** 6
DEFAULT_GRID_BUDGET = 10 ** 7
_FLOAT_DET_REL_TOL = 1e-9
_FLOAT_BATCH = 32768  # largest batch of simplex points evaluated at once


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
    """Basis of {P : P X_i = Y_i P for all i} (and P star(X_i) = star(Y_i) P).

    P is flattened row-major into n^2 unknowns.  The exact kind solves the
    equations one at a time (``_exact_intertwiners``) and returns the reduced
    basis of the whole system: basis[j] is 1 at the j-th free entry and 0 at
    the other free entries, and the defining equations hold exactly.  The
    float kinds stack every equation (n^2 rows each) into one numpy system
    (``_float_system``) and read its kernel off ``_float_kernel``.
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
        basis = tuple(Matrix(x.field, n, n, tuple(v)) for v in _exact_intertwiners(xs, ys, n))
    else:
        xs = [m.to_numpy() for m in x.matrices]
        ys = [m.to_numpy() for m in y.matrices]
        if with_star:
            xs += [m.to_numpy() for m in x.stars()]
            ys += [m.to_numpy() for m in y.stars()]
        kernel = _float_kernel(_float_system(xs, ys, n), _float_tol(tol))
        basis = tuple(Matrix.from_numpy(x.field, v.reshape(n, n)) for v in kernel)
    return IntertwinerBasis(n, with_star, x.field, basis)


def _float_system(xs, ys, n: int) -> np.ndarray:
    """Rows of P X_i - Y_i P = 0 over the row-major entries of P, stacked.

    ``xs`` and ``ys`` hold the matrices as numpy arrays; each pair
    contributes n^2 rows, row (a, b) holding X_i[s, b] at column (a, s) and
    -Y_i[a, r] at column (r, b).  Every entry is formed as (0 + x) - y, with
    x and y taken only where they belong (never as 0 * x), so no entry is a
    negative zero and each equals the scalar arithmetic on the same values.
    """
    d = len(xs)
    system = np.zeros((d, n, n, n, n), dtype=xs[0].dtype)  # [i, a, b, r, s]
    diag = np.arange(n)
    system[:, diag, :, diag, :] += np.stack(xs).transpose(0, 2, 1)  # r = a
    system[:, :, diag, :, diag] -= np.stack(ys)  # s = b
    return system.reshape(d * n * n, n * n)


def _exact_intertwiners(xs, ys, n: int) -> list:
    """Reduced basis (Fraction lists) of {P : P X_i = Y_i P for every pair}.

    ``xs`` and ``ys`` hold integer matrices as row lists.  The first
    equation is solved through Krylov chains of X = X_1 (``_krylov_chains``):
    vectors v_1..v_r whose chains v_i, X v_i, .., X^(m_i - 1) v_i form a
    basis K of Q^n, each closed by a tail relation
    X^(m_i) v_i = sum_{l,t} c_{l,t} X^t v_l.  An intertwiner is fixed by the
    images w_i = P v_i, since P X^t v_i = Y^t w_i.  Conversely, given any
    w_1..w_r, the P with P X^t v_l = Y^t w_l on K satisfies P X = Y P on
    every chain vector below its tail, and on the last one it reads
    Y^(m_i) w_i = sum c_{l,t} Y^t w_l.  So P <-> (w_1..w_r) is a bijection
    between the solutions and the kernel of those r tail relations: n r
    equations in n r unknowns (n when X is cyclic) instead of n^2 in n^2.
    Each kernel vector maps back to P = W K^{-1}, W holding the Y^t w_l.

    Each later equation is solved inside the current kernel: with
    P = sum_j c_j P_j it reads sum_j c_j (P_j X_i - Y_i P_j) = 0, n^2
    equations in the k coefficients.  The kernel shrinks at every step, and
    the loop stops once it is zero.  Kernel vectors are kept as ints divided
    by the gcd of their entries.  The last step brings the basis to the
    form ``_int_nullspace`` gives for the whole system: Gauss-Jordan on the
    column-reversed basis makes each vector d at one entry (the free column)
    and 0 at the other free ones.  That form is unique for the space, so
    it does not depend on the chains or the staging.
    """
    basis = [_primitive(v) for v in _chain_intertwiners(xs[0], ys[0], n)]
    for xi, yi in zip(xs[1:], ys[1:]):
        if not basis:
            return []
        xcols = [list(c) for c in zip(*xi)]
        residuals = []
        for p in basis:
            prow = [p[a * n:(a + 1) * n] for a in range(n)]
            pcols = [p[b::n] for b in range(n)]
            residuals.append([sum(map(mul, prow[a], xcols[b])) - sum(map(mul, yi[a], pcols[b]))
                              for a in range(n) for b in range(n)])
        coeffs, _ = _int_kernel([list(r) for r in zip(*residuals)], len(basis))
        if len(coeffs) == len(basis):
            continue  # every residual is zero: the equation holds on the whole kernel
        entries = list(zip(*basis))
        basis = [_primitive([sum(map(mul, cs, col)) for col in entries]) for cs in coeffs]
    ech, pivots, d, _ = _gauss_jordan_int([v[::-1] for v in basis])
    return [_fractions(ech[r][::-1], d) for r in reversed(range(len(pivots)))]


def _krylov_chains(x, n: int) -> tuple:
    """Krylov chains of the integer matrix ``x`` that together span Q^n.

    For each standard vector e_j outside the span so far, in order, the
    chain e_j, x e_j, x^2 e_j, .. grows until its next vector u falls into
    the span.  Returns ``(kept, chains)``: ``kept`` lists the chain vectors
    in order (a basis of Q^n), and ``chains`` holds one ``(start, length,
    relation)`` per chain, where ``relation`` is an integer list with
    relation[-1] * u + sum_k relation[k] * kept[k] = 0 and relation[-1] != 0.

    Membership is tested by fraction-free elimination against the kept
    vectors, each stored reduced with the combination of kept vectors that
    gives it, so a vector that reduces to zero yields its relation directly.
    """
    ech = []  # (reduced vector, combination of kept vectors, pivot index)
    kept = []
    chains = []
    for j in range(n):
        u = [0] * n
        u[j] = 1
        start = len(kept)
        while True:
            red = list(u)
            comb = [0] * len(kept) + [1]
            for row, rcomb, p in ech:
                h = red[p]
                if h:
                    g = math.gcd(row[p], h)
                    q, h = row[p] // g, h // g
                    red = [q * a - h * b for a, b in zip(red, row)]
                    comb = ([q * a - h * b for a, b in zip(comb, rcomb)]
                            + [q * a for a in comb[len(rcomb):]])
            g = math.gcd(*red, *comb)
            red = [a // g for a in red]
            comb = [a // g for a in comb]
            pivot = next((i for i, a in enumerate(red) if a), None)
            if pivot is None:
                if len(kept) > start:
                    chains.append((start, len(kept) - start, comb))
                break
            ech.append((red, comb, pivot))
            kept.append(u)
            u = [sum(map(mul, row, u)) for row in x]
        if len(kept) == n:
            break
    return kept, chains


def _chain_intertwiners(x, y, n: int) -> list:
    """Integer vectors spanning {P : P X = Y P} (P row-major), found from the
    tail relations of the Krylov chains of X (see ``_exact_intertwiners``)."""
    kept, chains = _krylov_chains(x, n)
    r = len(chains)
    owner = [(l, t) for l, (_, length, _) in enumerate(chains) for t in range(length)]
    ypow = [[[int(a == b) for b in range(n)] for a in range(n)]]  # Y^0 .. Y^(max m_i)
    ycols = [list(c) for c in zip(*y)]
    while len(ypow) <= max(length for _, length, _ in chains):
        ypow.append([[sum(map(mul, row, col)) for col in ycols] for row in ypow[-1]])
    rows = []  # row a of chain i: the a-th entry of rel[-1] Y^(m_i) w_i + sum rel[k] Y^t w_l
    for i, (_, length, rel) in enumerate(chains):
        block = [[0] * (n * r) for _ in range(n)]
        terms = [(l, t, c) for (l, t), c in zip(owner, rel[:-1]) if c]
        terms.append((i, length, rel[-1]))
        for l, t, c in terms:
            for brow, yrow in zip(block, ypow[t]):
                for s, e in enumerate(yrow, start=l * n):
                    brow[s] += c * e
        rows += block
    kernel, _ = _int_kernel(rows, n * r)
    if not kernel:
        return []
    # K^{-1} up to one scalar: Gauss-Jordan of [K | I] leaves d [I | K^{-1}]
    ech, _, _, _ = _gauss_jordan_int([[v[a] for v in kept] + [int(a == b) for b in range(n)]
                                      for a in range(n)])
    kinv_cols = [list(col) for col in zip(*(row[n:] for row in ech))]
    out = []
    for w in kernel:
        images = []  # P applied to each kept vector: Y^t w_l
        for l, (_, length, _) in enumerate(chains):
            v = w[l * n:(l + 1) * n]
            images.append(v)
            for _ in range(length - 1):
                v = [sum(map(mul, row, v)) for row in y]
                images.append(v)
        out.append([sum(map(mul, prow, col)) for prow in zip(*images) for col in kinv_cols])
    return out


def _primitive(v: list) -> list:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return [e // g for e in v]


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


def _simplex(n: int, k: int):
    """The points of {a in N^k : a_1 + ... + a_k = n} in lexicographic order.

    A point is read off its k - 1 bar positions among n + k - 1 slots (stars
    and bars); bar tuples in lexicographic order give the points in
    lexicographic order.  There are C(n+k-1, n) of them.
    """
    last = (n + k - 1,)
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        yield tuple(e - s - 1 for e, s in zip(bars + last, (-1,) + bars))


def find_invertible(b: IntertwinerBasis, seed: int = 0, trials: int = DEFAULT_TRIALS,
                    sample_bound: int = DEFAULT_SAMPLE_BOUND,
                    budget: int = DEFAULT_GRID_BUDGET) -> Optional[Matrix]:
    """Search the span of the basis for an invertible element.

    trials > 0: seeded Monte Carlo over {-sample_bound..sample_bound}^dim;
    returns None after the given number of misses (inconclusive).

    trials == 0: deterministic walk of the degree-n coefficient simplex
    {a in N^dim : a_1 + ... + a_dim = n} in lexicographic order, returning
    the first invertible point; None is then a proof that every element of
    the span is singular.  With k = dim, f(c) = det(sum c_j B_j) is
    homogeneous of degree n.  If f is nonzero, so is
    g(c_1..c_{k-1}) = f(c_1, .., c_{k-1}, n - c_1 - .. - c_{k-1}), since f
    is recovered from g by homogenising; g has total degree <= n.  The
    principal lattice {a in N^(k-1) : sum a <= n}, which is the simplex
    without its last coordinate, is unisolvent for such polynomials (induct
    on the last variable), so g is nonzero on one of its points.  The
    simplex has C(n+k-1, n) points, a subset of the full grid {0..n}^k.
    Float points go through numpy in batches that start at one point and
    double up to 32768, so an early hit costs little.
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

    points = math.comb(n + k - 1, n)
    if points > budget:
        raise BudgetExceededError(
            "deterministic invertibility search exceeds budget: the degree-%d coefficient "
            "simplex has C(%d+%d-1, %d) = %d points > %d" % (n, n, k, n, points, budget))
    if exact:
        int_basis = _int_basis(b)
        for coeffs in _simplex(n, k):
            if _exact_combo_invertible(int_basis, coeffs, n):
                return b.combo([Fraction(c) for c in coeffs])
        return None
    stack = np.stack([m.to_numpy() for m in b.basis])
    walk = _simplex(n, k)
    size = 1
    while True:
        block = list(itertools.islice(walk, size))
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
        size = min(2 * size, _FLOAT_BATCH)


# -- GL similarity --------------------------------------------------------------

@dataclass(frozen=True)
class GLVerdict:
    verdict: str  # similar | not_similar | not_similar_probable
    witness: Optional[Matrix]
    detail: str

    @property
    def is_similar(self) -> bool:
        return self.verdict == "similar"


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
    points = math.comb(x.n + basis.dim - 1, x.n)
    if mode == "auto":
        mode = "deterministic" if points <= budget else "monte_carlo"
    if mode == "deterministic":
        p = find_invertible(basis, trials=0, budget=budget)
        where = "all %d points" % points if points > 1 else "the one point"
        return basis, p, True, ("determinant vanishes on %s of the degree-%d coefficient "
                                "simplex" % (where, x.n))
    p = find_invertible(basis, seed=seed, trials=trials, sample_bound=sample_bound)
    return basis, p, False, "%d Monte Carlo trials found no invertible %s" % (trials, what)


def gl_similar(x: MatrixTuple, y: MatrixTuple, mode: str = "auto", seed: int = 0,
               trials: int = DEFAULT_TRIALS, sample_bound: int = DEFAULT_SAMPLE_BOUND,
               budget: int = DEFAULT_GRID_BUDGET, filters: bool = True) -> GLVerdict:
    """Decide simultaneous similarity; a `similar` verdict carries a verified P.

    mode 'deterministic' walks the coefficient simplex (complete; may refuse
    on budget), 'monte_carlo' is probabilistic on the negative side only,
    'auto' picks deterministic when the simplex fits the budget.
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
