import math
import random
import re
import sys
import warnings
from fractions import Fraction

import pytest

from conftest import rand_invertible_int
from tracesim import (Field, Kind, Matrix, MissingUnitsError, NonCentralCoefficientError,
                      ShapeError, SubringReport, UnitSystem, check_delta, check_epsilon,
                      coeff_product, commutant, extract_subring_coefficients, theta_embedding)
from tracesim.matrix_units import EpsilonViolation

FQ = Field.rational()
FR = Field.real64()
FC = Field.complex128()


def std_family(n):
    return [[Matrix.unit(FQ, n, i, j) for j in range(n)] for i in range(n)]


# -- epsilon -------------------------------------------------------------------

def test_standard_units_pass():
    ok, violation = check_epsilon(std_family(2))
    assert ok and violation is None


def test_zero_unit_is_reported():
    family = std_family(2)
    family[0][0] = Matrix.zeros(FQ, 2, 2)
    ok, violation = check_epsilon(family)
    assert not ok
    assert violation.kind == "zero" and (violation.i, violation.j) == (0, 0)


def test_wrong_product_is_located():
    family = std_family(2)
    family[0][1] = family[0][1].scale(2)  # breaks a_01 * a_10 = a_00
    ok, violation = check_epsilon(family)
    assert not ok and violation.kind == "product"


def test_conjugated_units_pass():
    p = Matrix.from_rows(FQ, [[1, 1], [0, 1]])
    sys_ = UnitSystem.conjugated(FQ, 2, p)
    ok, _ = check_epsilon(sys_.units)
    assert ok


def test_sandwich_identity():
    rng = random.Random(0)
    p = rand_invertible_int(rng, FQ, 3)
    u = UnitSystem.conjugated(FQ, 3, p)
    for s in range(3):
        for t in range(3):
            for i in range(3):
                for j in range(3):
                    lhs = u.at(s, s) * u.at(i, j) * u.at(t, t)
                    expected = u.at(i, j) if (s, t) == (i, j) else Matrix.zeros(FQ, 3, 3)
                    assert lhs == expected


def test_units_linearly_independent():
    rng = random.Random(1)
    for _ in range(5):
        p = rand_invertible_int(rng, FQ, 3)
        u = UnitSystem.conjugated(FQ, 3, p)
        stacked = Matrix.from_rows(FQ, [list(m.entries) for m in u.flat()])
        assert stacked.rank() == 9


def test_unit_count_bounded_by_dimension():
    # a valid nonzero N x N system inside M_n forces N^2 <= n^2
    u = UnitSystem.standard(FQ, 3)
    assert u.n_units ** 2 <= u.n ** 2
    with pytest.raises(ShapeError):
        # no 3x3 unit system fits inside M_2: constructor validates relations
        bad = [[Matrix.unit(FQ, 2, min(i, 1), min(j, 1)) for j in range(3)] for i in range(3)]
        UnitSystem.from_family(bad)


# -- delta ----------------------------------------------------------------------

def test_delta_examples():
    u = UnitSystem.standard(FQ, 2)
    assert check_delta(Matrix.identity(FQ, 2).scale(3), u)
    assert not check_delta(Matrix.unit(FQ, 2, 0, 0), u)
    assert check_delta(Matrix.zeros(FQ, 2, 2), u)


# -- theta ----------------------------------------------------------------------

def scalar_coeffs(values, n):
    return [[Matrix.identity(FQ, n).scale(v) for v in row] for row in values]


def test_theta_is_identity_on_standard_units():
    u = UnitSystem.standard(FQ, 3)
    values = [[Fraction(i * 3 + j + 1) for j in range(3)] for i in range(3)]
    th = theta_embedding(u, scalar_coeffs(values, 3))
    assert th == Matrix.from_rows(FQ, values)


def test_theta_respects_unit_relations():
    rng = random.Random(2)
    p = rand_invertible_int(rng, FQ, 2)
    u = UnitSystem.conjugated(FQ, 2, p)
    e11 = scalar_coeffs([[1, 0], [0, 0]], 2)
    e12 = scalar_coeffs([[0, 1], [0, 0]], 2)
    assert theta_embedding(u, e11) * theta_embedding(u, e12) == theta_embedding(u, e12)


def test_theta_multiplicative_on_random_central_coeffs():
    rng = random.Random(3)
    p = rand_invertible_int(rng, FQ, 3)
    u = UnitSystem.conjugated(FQ, 3, p)
    for _ in range(10):
        a_vals = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        b_vals = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        ca = scalar_coeffs(a_vals, 3)
        cb = scalar_coeffs(b_vals, 3)
        lhs = theta_embedding(u, ca) * theta_embedding(u, cb)
        rhs = theta_embedding(u, coeff_product(ca, cb))
        assert lhs == rhs


def test_theta_injective_spot_check():
    rng = random.Random(4)
    p = rand_invertible_int(rng, FQ, 2)
    u = UnitSystem.conjugated(FQ, 2, p)
    for _ in range(20):
        values = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        if all(v == 0 for row in values for v in row):
            continue
        assert not theta_embedding(u, scalar_coeffs(values, 2)).is_zero()


def test_theta_rejects_non_central_coefficients():
    u = UnitSystem.standard(FQ, 2)
    coeffs = scalar_coeffs([[1, 0], [0, 1]], 2)
    coeffs[0][0] = Matrix.unit(FQ, 2, 0, 0)  # does not commute with the units
    with pytest.raises(NonCentralCoefficientError):
        theta_embedding(u, coeffs)


# -- commutant -------------------------------------------------------------------

def test_commutant_of_empty_set_is_everything():
    basis = commutant([], n=2, field=FQ)
    assert len(basis) == 4


def test_commutant_of_standard_units_is_scalars():
    for n in range(2, 6):
        basis = commutant(UnitSystem.standard(FQ, n).flat())
        assert len(basis) == 1
        b = basis[0]
        lam = b.at(0, 0)
        assert b == Matrix.identity(FQ, n).scale(lam) and lam != 0


def test_commutant_of_distinct_diagonal():
    basis = commutant([Matrix.diagonal(FQ, [1, 2])])
    assert len(basis) == 2


# -- subring extraction -----------------------------------------------------------

def flat_std(n):
    return [m for row in std_family(n) for m in row]


def test_subring_of_plain_units():
    rep = extract_subring_coefficients(flat_std(2))
    assert rep.closure_ok and rep.reconstruction_ok
    assert Fraction(0) in rep.coefficients and Fraction(1) in rep.coefficients


def test_subring_with_doubling_generator():
    rep = extract_subring_coefficients(flat_std(2) + [Matrix.unit(FQ, 2, 0, 0).scale(2)])
    assert rep.closure_ok and rep.reconstruction_ok
    assert Fraction(2) in rep.coefficients and Fraction(4) in rep.coefficients


def test_subring_with_halving_generator_sees_dyadics():
    rep = extract_subring_coefficients(
        flat_std(2) + [Matrix.unit(FQ, 2, 0, 0).scale(Fraction(1, 2))])
    assert rep.closure_ok and rep.reconstruction_ok
    assert Fraction(1, 2) in rep.coefficients and Fraction(1, 4) in rep.coefficients
    assert all(v.denominator & (v.denominator - 1) == 0 for v in rep.coefficients)


def test_subring_requires_standard_units():
    with pytest.raises(MissingUnitsError):
        extract_subring_coefficients([Matrix.identity(FQ, 2)])


# -- stacked corner products against the pair loops -----------------------------------

def reference_subring(generators, depth):
    """extract_subring_coefficients as a plain pair loop: three products per
    pair (x, y) for the corners and E_0i x E_j0 formed afresh for each (i, j).
    A NaN difference counts, as in the function under test."""
    field, n = generators[0].field, generators[0].rows
    std = [[Matrix.unit(field, n, i, j) for j in range(n)] for i in range(n)]
    eff = 0.0 if field.is_exact else 1e-9
    sample, seen, layer = [], set(), [Matrix.identity(field, n)]
    for _ in range(depth):
        nxt = []
        for m in layer:
            for g in generators:
                prod = m * g
                if prod.entries not in seen:
                    seen.add(prod.entries)
                    nxt.append(prod)
                    sample.append(prod)
                    if len(sample) >= 4000:
                        break
            if len(sample) >= 4000:
                break
        if len(sample) >= 4000:
            break
        layer = nxt

    def differs(u, w):
        return u != w if field.is_exact else not abs(u - w) <= eff

    violations = []
    for x in sample[:40]:
        for y in sample[:40]:
            witness = x * std[0][0] * y * std[0][0]
            if differs(witness.at(0, 0), x.at(0, 0) * y.at(0, 0)):
                violations.append(("mul", x.at(0, 0), y.at(0, 0)))
    recon_ok = True
    for x in sample[:40]:
        acc = Matrix.zeros(field, n, n)
        for i in range(n):
            for j in range(n):
                acc = acc + std[i][0] * (std[0][i] * x * std[j][0]) * std[0][j]
        if not (acc - x).is_zero(eff):
            recon_ok = False
            violations.append(("reconstruction", x.entries, None))
            break
    corners = {m.at(0, 0) for m in sample}
    coeffs = sorted(corners, key=lambda v: (abs(v), repr(v))) if field.is_complex \
        else sorted(corners)
    return SubringReport(tuple(coeffs), not any(v[0] == "mul" for v in violations),
                         recon_ok, tuple(violations), len(sample))


def rand_generator(rng, field, n):
    def value():
        v = Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2, 3]))
        if field.kind is Kind.REAL64:
            return float(v)
        if field.is_complex:
            return complex(float(v), rng.randint(-1, 1) / 2)
        return v
    return Matrix.from_rows(field, [[value() for _ in range(n)] for _ in range(n)])


def subring_sets():
    out = []
    for field in (FQ, FR, FC):
        for n in (2, 3):
            rng = random.Random("%s-%d" % (field.kind.value, n))
            for extras in (1, 2) if n == 2 else (1,):
                gens = [Matrix.unit(field, n, i, j) for i in range(n) for j in range(n)]
                gens += [rand_generator(rng, field, n) for _ in range(extras)]
                out.append(pytest.param(gens, 3, id="%s-n%d-x%d" % (field.kind.value, n, extras)))
    out.append(pytest.param(OVERFLOW_GENS, 2, id="float64-overflow"))
    return out


# At depth 2 the products stay finite apart from some (0,1) entries, so no
# corner is NaN; the corner checks overflow, and for x = y = the last
# generator x00 y01 = inf turns the last E00 product into NaN while
# x00 y00 = 1e200.
OVERFLOW_GENS = ([Matrix.unit(FR, 2, i, j) for i in range(2) for j in range(2)]
                 + [Matrix.from_rows(FR, [[1e100, 1e250], [0, 1]])])


@pytest.mark.parametrize("gens,depth", subring_sets())
def test_subring_report_matches_pair_loop(gens, depth):
    got = extract_subring_coefficients(gens, depth=depth)
    assert got == reference_subring(gens, depth)
    assert all(v == v for v in got.coefficients)  # no NaN, so == is meaningful


def test_overflowing_subring_reports_violations():
    rep = extract_subring_coefficients(OVERFLOW_GENS, depth=2)
    assert not rep.closure_ok and not rep.reconstruction_ok
    assert ("mul", 1e100, 1e100) in rep.violations


def delta_by_subtraction(v, system):
    scale = max(1.0, max(u.maxabs() for u in system.flat())) * max(1.0, v.maxabs())
    eff = 0.0 if v.field.is_exact else min(1e-9 * scale, sys.float_info.max)  # inf never passes
    return all((v * u - u * v).is_zero(eff) for u in system.flat())


def kron_family(field, u, n_units, m, blocks):
    """[[U (B_ij) U^-1]] for n x n block matrices B_ij (n = n_units * m)
    given as functions of (i, j) returning row lists."""
    uinv = u.inverse()
    return [[u * Matrix.from_rows(field, blocks(i, j)) * uinv for j in range(n_units)]
            for i in range(n_units)]


@pytest.mark.parametrize("field", [FQ, FR, FC], ids=["rational", "float64", "complex128"])
@pytest.mark.parametrize("n_units,m", [(2, 1), (2, 2), (3, 1)])
def test_check_delta_and_theta_match_subtraction_form(field, n_units, m):
    rng = random.Random("%s-%d-%d" % (field.kind.value, n_units, m))
    n = n_units * m
    u = rand_invertible_int(rng, FQ, n).astype(field)
    # units U (E_ij (x) I_m) U^-1; coefficients U (I_N (x) M) U^-1 commute with them
    system = UnitSystem.from_family(kron_family(
        field, u, n_units, m,
        lambda i, j: [[int(r // m == i and c // m == j and r % m == c % m) for c in range(n)]
                      for r in range(n)]))
    mats = [[[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)] for _ in range(n_units ** 2)]
    commuting = kron_family(
        field, u, n_units, m,
        lambda i, j: [[mats[i * n_units + j][r % m][c % m] if r // m == c // m else 0
                       for c in range(n)] for r in range(n)])
    other = [[rand_generator(rng, field, n) for _ in range(n_units)] for _ in range(n_units)]
    for coeffs in (commuting, other):
        verdicts = [check_delta(c, system) for row in coeffs for c in row]
        assert verdicts == [delta_by_subtraction(c, system) for row in coeffs for c in row]
        if all(verdicts):
            expected = Matrix.zeros(field, n, n)
            for i in range(n_units):
                for j in range(n_units):
                    expected = expected + coeffs[i][j] * system.at(i, j)
            assert theta_embedding(system, coeffs) == expected
        else:
            with pytest.raises(NonCentralCoefficientError):
                theta_embedding(system, coeffs)
    assert all(check_delta(c, system) for row in commuting for c in row)
    assert not all(check_delta(c, system) for row in other for c in row)


@pytest.mark.parametrize("magnitude", [1e6, 1e9])
def test_large_central_float_coefficients_pass_and_perturbed_ones_fail(magnitude):
    # units P (E_ij (x) I_2) P^-1, coefficients P (I_2 (x) C) P^-1 with |C| ~ magnitude:
    # c u - u c grows with |c|, so a bound that ignores |c| rejects central ones
    rng = random.Random(magnitude)
    for _ in range(20):
        p = Matrix.from_rows(FR, [[rng.gauss(0, 1) for _ in range(4)] for _ in range(4)])
        system = UnitSystem.from_family(kron_family(
            FR, p, 2, 2, lambda i, j: [[int(r // 2 == i and c // 2 == j and r % 2 == c % 2)
                                        for c in range(4)] for r in range(4)]))
        mats = [[[rng.gauss(0, magnitude) for _ in range(2)] for _ in range(2)] for _ in range(4)]

        def blocks(i, j, bump=0.0):
            rows = [[mats[2 * i + j][r % 2][c % 2] if r // 2 == c // 2 else 0.0
                     for c in range(4)] for r in range(4)]
            rows[0][0] += bump
            return rows

        central = kron_family(FR, p, 2, 2, blocks)
        assert all(check_delta(c, system) for row in central for c in row)
        theta_embedding(system, central)
        # a relative 1e-3 change in one corner of C_11 no longer commutes with the units
        perturbed = kron_family(FR, p, 2, 2, lambda i, j: blocks(i, j, 1e-3 * magnitude * i * j))
        assert [check_delta(c, system) for row in perturbed for c in row] == [True] * 3 + [False]
        with pytest.raises(NonCentralCoefficientError, match=r"\(1,1\)"):
            theta_embedding(system, perturbed)


def epsilon_by_pairs(units):
    """check_epsilon as a plain loop: one product units[i][j] * units[s][t]
    per relation, compared with approx_eq / is_zero at the same tolerance."""
    flat = [m for row in units for m in row]
    if flat[0].field.is_exact:
        eff = 0.0
    else:
        eff = 1e-9 * max(1.0, max(m.maxabs() for m in flat))
    n_outer = len(units)
    for i in range(n_outer):
        for j in range(n_outer):
            if units[i][j].is_zero(eff):
                return False, EpsilonViolation("zero", i, j)
    for i in range(n_outer):
        for j in range(n_outer):
            for s in range(n_outer):
                for t in range(n_outer):
                    got = units[i][j] * units[s][t]
                    expected = units[i][t] if j == s else Matrix.zeros(got.field, got.rows, got.cols)
                    if not got.approx_eq(expected, eff):
                        return False, EpsilonViolation("product", i, j, s, t, expected, got)
    return True, None


def epsilon_families(field):
    rng = random.Random("epsilon-%s" % field.kind.value)
    out = []
    for n_units, m in [(2, 1), (2, 2), (3, 1)]:
        n = n_units * m
        u = rand_invertible_int(rng, FQ, n).astype(field)
        family = kron_family(
            field, u, n_units, m,
            lambda i, j: [[int(r // m == i and c // m == j and r % m == c % m) for c in range(n)]
                          for r in range(n)])
        out.append(("valid-%d-%d" % (n_units, m), family))
        for k in range(3):  # one entry of one unit off by one
            broken = [list(row) for row in family]
            i, j, e = rng.randrange(n_units), rng.randrange(n_units), rng.randrange(n * n)
            ent = list(broken[i][j].entries)
            ent[e] += 1
            broken[i][j] = Matrix.from_rows(field, [ent[r:r + n] for r in range(0, n * n, n)])
            out.append(("broken-%d-%d-%d" % (n_units, m, k), broken))
    if not field.is_exact:
        nan = complex(math.nan, 0.0) if field.is_complex else math.nan
        std = [[Matrix.unit(field, 2, i, j) for j in range(2)] for i in range(2)]
        for i, j, e in [(0, 0, 3), (0, 1, 1), (1, 1, 0)]:
            family = [list(row) for row in std]
            ent = list(family[i][j].entries)
            ent[e] = nan
            family[i][j] = Matrix(field, 2, 2, tuple(ent))
            out.append(("nan-%d%d-%d" % (i, j, e), family))
        # every product of 1e200 E_ij overflows; at the default tolerance, which
        # scales with the entries, only such a family gets past the zero check
        out.append(("overflow-all", [[m.scale(1e200) for m in row] for row in std]))
        # a_01 a_10 = 1e400 E_00 overflows; so does 1e200 a_11 a_11 inside a 3x3 system
        big = [list(row) for row in std]
        big[0][1], big[1][0] = big[0][1].scale(1e200), big[1][0].scale(1e200)
        out.append(("overflow-01-10", big))
        std3 = [[Matrix.unit(field, 3, i, j) for j in range(3)] for i in range(3)]
        std3[1][1] = std3[1][1].scale(1e200)
        out.append(("overflow-11", std3))
    # the id suffix -None names the scaled default tolerance, the only one there is
    return [pytest.param(family, id="%s-%s-None" % (field.kind.value, name))
            for name, family in out]


@pytest.mark.parametrize("family", [f for field in (FQ, FR, FC) for f in epsilon_families(field)])
def test_check_epsilon_matches_pair_loop(family):
    got, want = check_epsilon(family), epsilon_by_pairs(family)
    assert repr(got) == repr(want)  # NaN entries compare by repr
    if not any(v != v for row in family for m in row for v in m.entries):
        assert got == want


def kron_system(rng, field, n_units, m):
    """(units, central coefficients): U (E_ij (x) I_m) U^-1 and U (I_N (x) M_ij) U^-1
    for random integer M_ij of magnitude up to 3 * 100^k for the k-th, with
    U = V diag(1, 2, ..., n) for a random integer V, so the rational units
    have mixed denominators and each float coefficient needs its own bound."""
    n = n_units * m
    u = (rand_invertible_int(rng, FQ, n) * Matrix.diagonal(FQ, range(1, n + 1))).astype(field)
    units = kron_family(field, u, n_units, m, lambda i, j: [
        [int(r // m == i and c // m == j and r % m == c % m) for c in range(n)] for r in range(n)])
    mats = [[[rng.randint(-3, 3) * 100 ** k for _ in range(m)] for _ in range(m)]
            for k in range(n_units ** 2)]
    coeffs = kron_family(field, u, n_units, m, lambda i, j: [
        [mats[i * n_units + j][r % m][c % m] if r // m == c // m else 0 for c in range(n)]
        for r in range(n)])
    return units, coeffs


def breakages(field):
    """Ways to break one entry: a bump, and for the float kinds NaN, inf and -0.0."""
    if field.is_exact:
        return [lambda v: v + Fraction(1, 7), lambda v: Fraction(0)]
    z = complex if field.is_complex else float
    return [lambda v: v + z(1), lambda v: z(math.nan), lambda v: z(math.inf), lambda v: z(-0.0)]


def with_entry(m, e, value):
    """m with row-major entry e replaced; NaN and inf go in without coercion."""
    ent = list(m.entries)
    ent[e] = value
    if m.field.is_exact:
        return Matrix.from_rows(m.field, [ent[r:r + m.cols] for r in range(0, len(ent), m.cols)])
    return Matrix(m.field, m.rows, m.cols, tuple(ent))


@pytest.mark.parametrize("field", [FQ, FR, FC], ids=["rational", "float64", "complex128"])
@pytest.mark.parametrize("n_units,m", [(2, 1), (3, 1), (2, 2)])
def test_whole_array_epsilon_check_matches_pair_loop_at_every_entry(field, n_units, m):
    rng = random.Random("whole-epsilon-%s-%d-%d" % (field.kind.value, n_units, m))
    units, _ = kron_system(rng, field, n_units, m)
    if field.is_exact:
        assert len({u.denom for row in units for u in row}) > 1
    firsts = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert check_epsilon(units) == epsilon_by_pairs(units) == (True, None)
        for ij, e in [(ij, e) for ij in range(n_units ** 2) for e in range((n_units * m) ** 2)]:
            i, j = divmod(ij, n_units)
            for brk in breakages(field):
                broken = [list(row) for row in units]
                broken[i][j] = with_entry(units[i][j], e, brk(units[i][j].entries[e]))
                got, want = check_epsilon(broken), epsilon_by_pairs(broken)
                # kind, (i, j, s, t) and the expected and got matrices; NaN compares by repr
                assert repr(got) == repr(want)
                firsts.add(str(got[1]))  # which relation failed first, or None
    assert len(firsts) > 2


@pytest.mark.parametrize("field", [FQ, FR, FC], ids=["rational", "float64", "complex128"])
@pytest.mark.parametrize("n_units,m", [(2, 1), (3, 1), (2, 2)])
def test_whole_array_centrality_check_matches_subtraction_at_every_entry(field, n_units, m):
    rng = random.Random("whole-delta-%s-%d-%d" % (field.kind.value, n_units, m))
    units, coeffs = kron_system(rng, field, n_units, m)
    system = UnitSystem.from_family(units)
    flat = [c for row in coeffs for c in row]
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert all(check_delta(c, system) and delta_by_subtraction(c, system) for c in flat)
        theta_embedding(system, coeffs)
        for k, e in [(k, e) for k in range(len(flat)) for e in range((n_units * m) ** 2)]:
            for brk in breakages(field):
                broken = list(flat)
                broken[k] = with_entry(flat[k], e, brk(flat[k].entries[e]))
                central = check_delta(broken[k], system)
                assert central == delta_by_subtraction(broken[k], system)
                family = [broken[r:r + n_units] for r in range(0, len(broken), n_units)]
                if central:
                    theta_embedding(system, family)
                else:
                    with pytest.raises(NonCentralCoefficientError,
                                       match=re.escape("(%d,%d)" % divmod(k, n_units))):
                        theta_embedding(system, family)
                seen.add(central)
    assert False in seen


def test_exact_cross_multiplied_comparison_matches_fraction_equality():
    # e = P E_00 P^-1 is idempotent, one entry sometimes bumped: check_epsilon
    # compares e e, a product over e.denom^2, with e, and must agree with
    # Fraction arithmetic on the entries
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        p = Matrix.from_rows(FQ, [[Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6, 9]))
                                   for _ in range(2)] for _ in range(2)])
        if p.det() == 0:
            continue
        a = list((p * Matrix.unit(FQ, 2, 0, 0) * p.inverse()).entries)
        if rng.random() < 0.5:
            a[rng.randrange(4)] += Fraction(rng.choice([-1, 1]), rng.choice([1, 2, 5]))
        if not any(a):
            continue
        e = Matrix.from_rows(FQ, [a[:2], a[2:]])
        square = [a[0] * a[0] + a[1] * a[2], a[0] * a[1] + a[1] * a[3],
                  a[2] * a[0] + a[3] * a[2], a[2] * a[1] + a[3] * a[3]]
        ok, violation = check_epsilon([[e]])
        assert ok == (square == a)
        if not ok:
            assert violation == EpsilonViolation("product", 0, 0, 0, 0, e,
                                                 Matrix.from_rows(FQ, [square[:2], square[2:]]))
        seen.add((ok, e.denom > 1))
    assert (True, True) in seen and (False, True) in seen  # both verdicts on mixed denominators


# -- NaN residuals and overflow ------------------------------------------------------------

def float_std(n):
    return [[Matrix.unit(FR, n, i, j) for j in range(n)] for i in range(n)]


def test_nan_entries_fail_the_unit_checks():
    # u u = [[1, nan], [nan, nan]]: a max over |u u - u| skips the NaNs
    u = Matrix(FR, 2, 2, (1.0, 0.0, 0.0, math.nan))
    ok, violation = check_epsilon([[u]])
    assert not ok and violation.kind == "product"
    # v u - u v is NaN off its first entry for every standard unit u
    v = Matrix(FR, 2, 2, (0.0, 0.0, 0.0, math.nan))
    assert not check_delta(v, UnitSystem.standard(FR, 2))


def test_overflowing_subring_corner_is_a_violation():
    gens = [m for row in float_std(2) for m in row]
    rep = extract_subring_coefficients(gens + [Matrix.from_rows(FR, [[1e200, 0], [0, 1]])])
    assert any(v != v for v in rep.coefficients)
    assert not rep.closure_ok and not rep.reconstruction_ok


def test_overflowing_subring_coefficients_are_sorted_with_one_nan_last():
    gens = [m for row in float_std(2) for m in row]
    rep = extract_subring_coefficients(gens + [Matrix.from_rows(FR, [[1e200, 0], [0, 1]])])
    assert repr(rep.coefficients) == "(0.0, 1.0, 1e+200, inf, nan)"
    # (1e200 + 1e200j)^2 = (inf - inf) + inf j: a complex NaN
    gens = [Matrix.unit(FC, 2, i, j) for i in range(2) for j in range(2)]
    rep = extract_subring_coefficients(gens + [Matrix.from_rows(FC, [[1e200 + 1e200j, 0], [0, 1]])])
    *ordered, last = rep.coefficients
    assert ordered == [0j, 1 + 0j, 1e200 + 1e200j] and last != last
