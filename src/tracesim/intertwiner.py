"""Intertwiner spaces and GL-similarity of matrix tuples.

The space {P : P X_i = Y_i P for all i} (optionally with the starred
equations P star(X_i) = star(Y_i) P as well) is linear in the n^2 entries
of P.  The tuples are simultaneously similar iff that space contains an
invertible element, and any such P is a certified witness:
Y_i = P X_i P^{-1}.

The exact kind builds the space in stages.  P X_1 = Y_1 P is solved through
the r Krylov chains of X_1 (``_chain_solve``, the Sylvester solver), in n r
unknowns in place of n^2 (r = 1 when X_1 is cyclic).  Each later equation,
starred ones included, is solved only inside the kernel found so far, as n^2
equations in its k coefficients (the residuals P_j X_i - Y_i P_j of the
basis), and the work stops once the kernel is zero.  The final basis is
brought to the reduced form of the stacked system, so it does not depend on
the chains or the staging.  The float kinds stack all equations into one
numpy system, since restricting under a float rank threshold would change
which directions count as kernel.  Its rank is judged against the largest
entry of the X_i and Y_i: the system's own entries x - y cancel, and a
threshold taken from them counts rounding dust as rank (for X = c I and
Y = Q X Q^t, rounded, every entry is dust, and the space came out zero).

Invertible elements are found by one seeded draw loop (``_draws``) of
A = sum c_j B_j, c_j uniform in {-S..S}.  An invertible A is the witness
candidate.  A singular A starts the second Wong sequence
(``_shrunk_subspace``), which either escapes, and the loop draws again, or
finds U with dim sum_j B_j U < dim U.  Every P in the span maps U into that
smaller space, so U proves that no P is invertible.  Only ``trials`` draws
that all escape leave a probable answer, with the Schwartz-Zippel bound
(n/(2S+1))^trials.  The float kinds take every rank decision, the draw's
invertibility and each Wong row space, by ``matrices._float_svd`` at the
basis scale, so their negatives are numerical verdicts.

``_search`` runs this decision for GL similarity here and, on the starred
space, for orthogonal similarity in ``orthogonal``.  Trace words are not
consulted: they separate orbits only in the starred real case, and the
search settles every pair.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from decimal import Decimal
from operator import mul
from typing import Optional

import numpy as np

from .errors import ShapeError
from .fields import Field
from .matrices import (RANK_TOL, Matrix, MatrixTuple, _det_int, _float_svd, _from_raw,
                       _gauss_jordan_int, _int_kernel, _int_matrices)

DEFAULT_TRIALS = 20
DEFAULT_SAMPLE_BOUND = 10 ** 6


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


def intertwiner_basis(x: MatrixTuple, y: MatrixTuple, with_star: bool) -> IntertwinerBasis:
    """Basis of {P : P X_i = Y_i P for all i} (and P star(X_i) = star(Y_i) P).

    P is flattened row-major into n^2 unknowns.  The exact kind solves the
    equations one at a time (``_exact_intertwiners``) and returns the reduced
    basis of the whole system: basis[j] is 1 at the j-th free entry and 0 at
    the other free entries, and the defining equations hold exactly.  The
    float kinds stack every equation (n^2 rows each) into one numpy system
    (``_float_system``) and return the orthonormal kernel basis of
    ``_float_svd`` at the scale of the largest entry of the X_i and Y_i.
    """
    _check_pair(x, y)
    n = x.n
    if x.field.is_exact:
        mats, _ = _int_matrices(x.matrices + y.matrices)
        xs, ys = mats[:x.d], mats[x.d:]
        if with_star:  # the exact star is the transpose
            xs += [[list(c) for c in zip(*m)] for m in xs]
            ys += [[list(c) for c in zip(*m)] for m in ys]
        vectors, d = _exact_intertwiners(xs, ys, n)
        basis = tuple(_from_raw(x.field, n, n, v, d) for v in vectors)
    else:
        xs = [m.to_numpy() for m in x.matrices]
        ys = [m.to_numpy() for m in y.matrices]
        if with_star:
            xs += [m.to_numpy() for m in x.stars()]
            ys += [m.to_numpy() for m in y.stars()]
        r, _, _, vh = _float_svd(_float_system(xs, ys, n), np.max(np.abs(np.stack(xs + ys))))
        basis = tuple(Matrix.from_numpy(x.field, v.reshape(n, n)) for v in vh[r:].conj())
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


def _exact_intertwiners(xs, ys, n: int) -> tuple:
    """(vectors, d): the reduced basis of {P : P X_i = Y_i P for every pair}
    as integer vectors over one d.

    ``xs`` and ``ys`` hold integer matrices as row lists.  The first
    equation, Y_1 P - P X_1 = 0, is the C = 0 case of ``_chain_solve``.  Each
    later equation is solved inside the current kernel: with
    P = sum_j c_j P_j it reads sum_j c_j (P_j X_i - Y_i P_j) = 0, n^2
    equations in the k coefficients.  The k residuals come from two
    object-array matmuls over the stacked P_j, and the new basis from one
    more.  The kernel shrinks at every step, and
    the loop stops once it is zero.  Kernel vectors are kept as ints divided
    by the gcd of their entries.  The last step brings the basis to the
    form ``Matrix.nullspace`` gives for the whole system: Gauss-Jordan on
    the column-reversed basis makes each vector d at one entry (the free
    column) and 0 at the other free ones.  That form is unique for the
    space, so it does not depend on the chains or the staging.
    """
    basis = [_primitive(v) for v in _chain_solve(ys[0], xs[0])]
    for xi, yi in zip(xs[1:], ys[1:]):
        if not basis:
            return [], 1
        k = len(basis)
        ps = np.array(basis, object).reshape(k, n, n)
        residuals = (ps @ np.array(xi, object) - np.array(yi, object) @ ps).reshape(k, n * n)
        coeffs, _ = _int_kernel(residuals.T.tolist(), k)
        if len(coeffs) == k:
            continue  # every residual is zero: the equation holds on the whole kernel
        combos = np.array(coeffs, object).reshape(len(coeffs), k) @ np.array(basis, object)
        basis = [_primitive(v) for v in combos.tolist()]
    ech, pivots, d, _ = _gauss_jordan_int([v[::-1] for v in basis])
    return [ech[r][::-1] for r in reversed(range(len(pivots)))], d


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


def _chain_solve(a, b, c=None):
    """Solutions X of A X - X B = C, from integer row lists ``a`` (n x n),
    ``b`` (m x m) and ``c`` (n x m; None for C = 0).

    X is fixed by its images w_l = X v_l of the Krylov chain starts of B:
    X B^t v_l = A^t w_l + g_{l,t}, g_{l,0} = 0, g_{l,t+1} = A g_{l,t} - C B^t v_l.
    Any w define an X on the chain basis K that solves the equation iff each
    tail relation of B carries over to the images: n r equations M w = rhs,
    and X = Z K^{-1}, Z the images.  Returns, for ``c`` None, integer
    row-major X spanning the solutions (no g is formed); else None when one
    reduction of [M | rhs] has a pivot in its last column (inconsistent), or
    (values, d): X over d, with the free entries of w zero.
    """
    n, m = len(a), len(b)
    kept, chains = _krylov_chains(b, m)
    r = len(chains)
    owner = [(l, t) for l, (_, length, _) in enumerate(chains) for t in range(length)]
    acc, amat = np.eye(n, dtype=object), np.array(a, object).reshape(n, n)
    apow = [acc.tolist()]  # A^0 .. A^(max m_l)
    while len(apow) <= max(length for _, length, _ in chains):
        acc = acc @ amat
        apow.append(acc.tolist())
    if c is not None:
        ck = (np.array(kept, object) @ np.array(c, object).T).tolist()  # C K, by columns
        gs = [[[0] * n] for _ in chains]  # g_{l,0} .. g_{l,m_l}
        for g, (start, length, _) in zip(gs, chains):
            for t in range(start, start + length):
                g.append([sum(map(mul, arow, g[-1])) - e for arow, e in zip(a, ck[t])])
    rows = []  # row i of chain l: the i-th entry of rel[-1] A^(m_l) w_l + sum rel[k] A^t w_l'
    for l, (_, length, rel) in enumerate(chains):
        block = [[0] * (n * r) for _ in range(n)]
        terms = [(l2, t, k) for (l2, t), k in zip(owner, rel[:-1]) if k]
        terms.append((l, length, rel[-1]))
        for l2, t, k in terms:
            for brow, arow in zip(block, apow[t]):
                for s, e in enumerate(arow, start=l2 * n):
                    brow[s] += k * e
        if c is not None:  # the constant column: the same relation on the g
            for i, brow in enumerate(block):
                brow.append(sum(k * gs[l2][t][i] for l2, t, k in terms))
        rows += block
    ws, d = _int_kernel(rows, len(rows[0]))
    if c is not None:  # M w = -const: the kernel vector that is d at the constant column
        ws = [v[:-1] for v in ws if v[-1]]  # none if the column holds a pivot
    if not ws:
        return [] if c is None else None
    # K^{-1} up to one scalar: Gauss-Jordan of [K | I] leaves dk [I | K^{-1}]
    ech, _, dk, _ = _gauss_jordan_int([[v[i] for v in kept] + [int(i == j) for j in range(m)]
                                       for i in range(m)])
    kinv = np.array([row[m:] for row in ech], object)
    zs = []  # Z for each w: column t is d times X applied to kept vector t
    for w in ws:
        images = []
        for l, (start, length, _) in enumerate(chains):
            u = w[l * n:(l + 1) * n]
            images.append(u)
            for t in range(start, start + length - 1):
                u = [sum(map(mul, row, u)) for row in a]
                if c is not None:
                    u = [x - d * e for x, e in zip(u, ck[t])]
                images.append(u)
        zs.append(list(zip(*images)))
    out = (np.array(zs, object).reshape(-1, m) @ kinv).reshape(len(ws), n * m).tolist()
    return out if c is None else (out[0], d * dk)


def _primitive(v: list) -> list:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return [e // g for e in v]


# -- invertible element search -------------------------------------------------

def _check_draws(trials: int, sample_bound: int):
    if trials < 1 or sample_bound < 1:
        raise ShapeError("the search needs trials >= 1 and sample_bound >= 1")


def _working_basis(b: IntertwinerBasis):
    """The basis the draws work on: integer row lists over one common
    denominator (L > 0 changes no rank) for the exact kind, and a (k, n, n)
    array scaled once so its largest entry is 1 for the float kinds."""
    if b.field.is_exact:
        return _int_matrices(b.basis)[0]
    stack = np.stack([m.to_numpy() for m in b.basis])
    return stack / np.max(np.abs(stack))


def _draws(b: IntertwinerBasis, mats, seed: int, trials: int, sample_bound: int):
    """Yields (coeffs, A, A is invertible) for ``trials`` seeded draws
    A = sum c_j B_j, c_j uniform in {-S..S} with S = ``sample_bound``, A in
    the form of ``mats``; float draws take c_j / S, keeping the basis scale
    1 at which ``_float_svd`` judges their rank."""
    rng = random.Random(seed)
    exact = b.field.is_exact
    entries = list(zip(*([e for row in m for e in row] for m in mats))) if exact else None
    for _ in range(trials):
        coeffs = [rng.randint(-sample_bound, sample_bound) for _ in range(b.dim)]
        if exact:
            flat = [sum(map(mul, coeffs, e)) for e in entries]
            a = [flat[i:i + b.n] for i in range(0, b.n * b.n, b.n)]
            yield coeffs, a, _det_int(a) != 0
        else:
            a = np.tensordot(np.array(coeffs, dtype=float) / sample_bound, mats, axes=1)
            yield coeffs, a, _float_svd(a, 1.0, vectors=False)[0] == b.n


def _shrunk_subspace(b: IntertwinerBasis, mats, a) -> Optional[tuple]:
    """The second Wong sequence from a singular draw A (Ivanyos-Karpinski-
    Saxena 2010): (U as basis columns, dim sum_j B_j U), or None on escape.

    From W_0 = 0 it takes U_i = A^{-1}(W_i), W_{i+1} = sum_j B_j U_i, and
    stops once dim W_{i+1} < dim U_i.  Else W_{i+1} must lie in im A, so
    dim U_{i+1} = dim ker A + dim W_{i+1} > dim U_i and U grows: at most n
    steps.  A^{-1}(W) is the kernel of [A | -W] cut to n entries (integer
    vectors) or of (I - W W^*) A (orthonormal rows from ``_float_svd`` at
    the basis scale 1, as is each W), and W lies in im A iff it has
    dim ker A + dim W vectors; otherwise A lacks the largest rank.
    """
    n, exact = b.n, b.field.is_exact
    if exact:
        def images(u):
            ech, pivots, _, _ = _gauss_jordan_int([[sum(map(mul, row, v)) for row in m]
                                                   for m in mats for v in u])
            return [_primitive(row) for row in ech[:len(pivots)]]

        def preimage(w):
            kernel, _ = _int_kernel([row + [-v[i] for v in w] for i, row in enumerate(a)],
                                    n + len(w))
            return [_primitive(v[:n]) for v in kernel]
    else:
        def images(u):
            r, _, _, vh = _float_svd(np.concatenate([u @ m.T for m in mats]), 1.0)
            return vh[:r]

        def preimage(w):
            r, _, _, vh = _float_svd(a - w.T @ (w.conj() @ a), 1.0)
            return vh[r:].conj()
    u = preimage([] if exact else np.zeros((0, n)))
    nullity = len(u)
    while True:
        w = images(u)
        if len(w) < len(u):
            cols = (_from_raw(b.field, n, len(u), [e for r in zip(*u) for e in r]) if exact
                    else Matrix.from_numpy(b.field, u.T))
            return cols, len(w)
        u = preimage(w)
        if len(u) < nullity + len(w):
            return None


def _certifies(b: IntertwinerBasis, mats, u: Matrix, image_dim: int) -> bool:
    """The recheck before U is claimed as a proof, from the basis and the
    columns of U alone: they are independent, and rank [B_1 U | .. | B_k U]
    = image_dim < dim U (k products and two ranks, in integers).  Float
    negatives are numerical verdicts and keep the loop's own ranks."""
    if not b.field.is_exact:
        return True
    cols = [list(u.values[j::u.cols]) for j in range(u.cols)]
    images = [[sum(map(mul, row, v)) for row in m] for m in mats for v in cols]
    return (len(_gauss_jordan_int(cols)[1]) == u.cols
            and len(_gauss_jordan_int(images)[1]) == image_dim < u.cols)


# -- GL similarity --------------------------------------------------------------

@dataclass(frozen=True)
class GLVerdict:
    verdict: str  # similar | not_similar | not_similar_probable
    witness: Optional[Matrix]
    detail: str

    @property
    def is_similar(self) -> bool:
        return self.verdict == "similar"


def _verify_intertwiner(p: Matrix, x: MatrixTuple, y: MatrixTuple) -> bool:
    """P X_i = Y_i P for all i; a float residual passes within
    RANK_TOL n max|P| max(|X|, |Y|), the scale that admitted P, capped at
    the largest float so inf and NaN fail."""
    tol = 0.0 if x.field.is_exact else min(
        RANK_TOL * p.rows * p.maxabs() * max(x.maxabs(), y.maxabs()), sys.float_info.max)
    return all((p * xi - yi * p).is_zero(tol) for xi, yi in zip(x.matrices, y.matrices))


def _decide_span(b: IntertwinerBasis, seed: int, trials: int, sample_bound: int):
    """(P, U, detail): P the first invertible one of ``trials`` seeded draws
    (``_draws``), still to be verified, or U a certified shrunk subspace (I
    for a zero span), or neither after every draw escaped, with the
    Schwartz-Zippel bound in the detail: det A has degree n in the c_j, so a
    span with an invertible element gives a singular draw with probability
    at most n/(2S+1).  Raises ``ShapeError`` unless trials >= 1 and
    sample_bound >= 1."""
    _check_draws(trials, sample_bound)
    what = "star-intertwiner" if b.with_star else "intertwiner"
    if b.dim == 0:
        return None, Matrix.identity(b.field, b.n), "%s space is zero" % what
    mats = _working_basis(b)
    for draw, (coeffs, a, invertible) in enumerate(
            _draws(b, mats, seed, trials, sample_bound), start=1):
        if invertible:
            return b.combo(coeffs), None, None
        found = _shrunk_subspace(b, mats, a)
        if found is not None and _certifies(b, mats, *found):
            return None, found[0], (
                "shrunk subspace: dim U = %d > dim sum_j B_j U = %d, so no %s is invertible "
                "(second Wong sequence, draw %d)" % (found[0].cols, found[1], what, draw))
    bound = (Decimal(b.n) / (2 * sample_bound + 1)) ** trials
    return None, None, (
        "%d Monte Carlo draws found no invertible %s and no shrunk subspace; "
        "Schwartz-Zippel error bound (%d/%d)^%d = %s"
        % (trials, what, b.n, 2 * sample_bound + 1, trials, format(bound, ".2e")))


def _search(x: MatrixTuple, y: MatrixTuple, with_star: bool, seed: int, trials: int,
            sample_bound: int):
    """The decision of GL and orthogonal similarity: ``_decide_span`` on the
    (starred) intertwiner space.  Returns (basis, P, proved, detail): P an
    invertible draw still to be verified, or None with ``proved`` telling a
    certified negative (a zero space or a shrunk subspace) from a probable
    one."""
    _check_pair(x, y)
    basis = intertwiner_basis(x, y, with_star=with_star)
    p, u, detail = _decide_span(basis, seed, trials, sample_bound)
    return basis, p, u is not None, detail


def gl_similar(x: MatrixTuple, y: MatrixTuple, seed: int = 0, trials: int = DEFAULT_TRIALS,
               sample_bound: int = DEFAULT_SAMPLE_BOUND) -> GLVerdict:
    """Decide simultaneous similarity; a `similar` verdict carries a verified P,
    `not_similar` a proof (a zero space or a shrunk subspace), and
    `not_similar_probable` follows only ``trials`` escaped draws."""
    _, p, proved, detail = _search(x, y, False, seed, trials, sample_bound)
    if p is None:
        return GLVerdict("not_similar" if proved else "not_similar_probable", None, detail)
    if not _verify_intertwiner(p, x, y):
        return GLVerdict("not_similar_probable", None, "candidate witness failed verification")
    return GLVerdict("similar", p, "verified intertwiner witness")
