"""Tests for exact Gaussian-rational arithmetic, resultants, and certificates."""

from fractions import Fraction

import numpy as np
import pytest

from teneig.exact import (
    ExactCharPoly,
    ExactPoly,
    GaussianRational,
    charpoly_exact_2_3,
    hyperdeterminant_222,
    is_singular_222,
    resultant_quadratics_2,
    sylvester_resultant,
)
from teneig.tensor import Tensor


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def exact_222(vals, m=3):
    ent = tuple(GaussianRational.coerce(v) for v in vals)
    arr = np.array([e.to_complex() for e in ent]).reshape((2,) * m)
    return Tensor(m, 2, arr, exact=ent)


def rand_rational(rng, lo=-6, hi=7, den=5):
    return Fraction(int(rng.integers(lo, hi)), int(rng.integers(1, den)))


FINEPRINT = [1, gr(0, 1), 0, 0, 0, 0, 1, gr(0, 1)]
LISTED = [-1, 0, 0, -1, 1, -1, 0, gr(1, -1)]


def test_gaussian_rational_parse_and_str():
    assert GaussianRational.from_string("3/4") == gr(Fraction(3, 4))
    assert GaussianRational.from_string("1/2-3i") == gr(Fraction(1, 2), -3)
    assert GaussianRational.from_string("i") == gr(0, 1)
    assert GaussianRational.from_string("-i") == gr(0, -1)
    assert GaussianRational.from_string("-5") == gr(-5)
    for s in ("3/4", "1/2-3i", "i", "-2/7+1/3i", "0"):
        v = GaussianRational.from_string(s)
        assert GaussianRational.from_string(str(v)) == v
    with pytest.raises(ValueError):
        GaussianRational.from_string("1/0")
    with pytest.raises(ValueError):
        GaussianRational.from_string("x+1")
    with pytest.raises(ValueError):
        GaussianRational.from_string("")


def test_gaussian_rational_arithmetic():
    a = gr(Fraction(1, 2), Fraction(1, 3))
    b = gr(2, -1)
    assert (a + b) - b == a
    assert a * b / b == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a ** 3 == a * a * a
    assert gr(0, 1) ** 2 == gr(-1)
    assert bool(gr(0)) is False and bool(a) is True
    assert abs(a.to_complex() - (0.5 + 1j / 3)) < 1e-15
    with pytest.raises(ZeroDivisionError):
        a / gr(0)


def test_exact_poly_ring_ops():
    x = ExactPoly.variable(2, 0)
    y = ExactPoly.variable(2, 1)
    p = x * x - y * y
    q = x + y
    assert p.exact_div(q) == x - y
    assert (q ** 3).total_degree() == 3
    assert (p - p).is_zero()
    assert p.evaluate([gr(3), gr(2)]) == gr(5)
    assert p.substitute_zero(1) == x * x
    with pytest.raises(ArithmeticError):
        (x * x + y).exact_div(q)  # not divisible


def test_sylvester_known_values():
    # Res_x(x^2 - a, x - b) = b^2 - a with a, b as parameters
    x = ExactPoly.variable(3, 0)
    a = ExactPoly.variable(3, 1)
    b = ExactPoly.variable(3, 2)
    r = sylvester_resultant(x * x - a, x - b, 0)
    assert r == b * b - a

    # two fixed univariates: Res(x^2 - 1, x - 2) = 3
    one = ExactPoly.constant(1, 1)
    xx = ExactPoly.variable(1, 0)
    assert sylvester_resultant(xx * xx - one, xx - one - one, 0) == \
        ExactPoly.constant(1, 3)


def test_sylvester_multiplicativity_and_swap():
    rng = np.random.default_rng(101)
    x = ExactPoly.variable(1, 0)

    def rand_poly(deg):
        out = ExactPoly.constant(1, 0)
        for k in range(deg + 1):
            c = gr(rand_rational(rng), rand_rational(rng))
            out = out + ExactPoly(1, {(k,): c}) if c else out
        if out.degree_in(0) < deg:  # pin the degree
            out = out + ExactPoly(1, {(deg,): gr(1)})
        return out

    for _ in range(6):
        p = rand_poly(2)
        q = rand_poly(2)
        r = rand_poly(1)
        lhs = sylvester_resultant(p * q, r, 0,
                                  deg_p=p.degree_in(0) + q.degree_in(0))
        rhs = sylvester_resultant(p, r, 0) * sylvester_resultant(q, r, 0)
        assert lhs == rhs
        dp, dq = p.degree_in(0), q.degree_in(0)
        swap = sylvester_resultant(q, p, 0)
        direct = sylvester_resultant(p, q, 0)
        sign = -1 if (dp * dq) % 2 else 1
        assert direct == (swap if sign == 1 else -swap)


def test_hyperdeterminant_examples():
    assert hyperdeterminant_222(exact_222([1] * 8)) == gr(0)
    assert hyperdeterminant_222(exact_222(LISTED)) == gr(-1)
    # integral float entries coerce to the same exact value
    assert hyperdeterminant_222(Tensor(3, 2, np.ones((2, 2, 2)))) == gr(0)
    with pytest.raises(ValueError):
        hyperdeterminant_222(Tensor(3, 3, np.ones((3, 3, 3))))  # wrong format


def test_hyperdeterminant_mode_symmetry():
    rng = np.random.default_rng(303)
    from itertools import permutations
    for _ in range(10):
        vals = [gr(rand_rational(rng), rand_rational(rng)) for _ in range(8)]
        A = exact_222(vals)
        d0 = hyperdeterminant_222(A)
        arr = np.array([v.to_complex() for v in vals]).reshape((2, 2, 2))
        ent = np.array(vals, dtype=object).reshape((2, 2, 2))
        for p in permutations(range(3)):
            ent_p = np.transpose(ent, p)
            B = Tensor(3, 2, np.transpose(arr, p), exact=tuple(ent_p.reshape(-1)))
            assert hyperdeterminant_222(B) == d0


def test_charpoly_c2_sum_of_squares():
    rng = np.random.default_rng(404)
    for _ in range(10):
        vals = [gr(rand_rational(rng), rand_rational(rng)) for _ in range(8)]
        A = exact_222(vals)
        cp = charpoly_exact_2_3(A)
        e = A.exact

        def a(i, j, k):
            return e[(i - 1) * 4 + (j - 1) * 2 + (k - 1)]

        u = -a(1, 1, 1) + a(1, 2, 2) + a(2, 1, 2) + a(2, 2, 1)
        v = a(1, 1, 2) + a(1, 2, 1) + a(2, 1, 1) - a(2, 2, 2)
        assert cp.c2 == u * u + v * v


def test_charpoly_c8_is_negated_resultant_square():
    # with C2 anchored to the sum-of-squares form, the constant term comes
    # out as the negated square of Res_x(A x^2) on every sampled tensor
    rng = np.random.default_rng(505)
    for _ in range(10):
        vals = [gr(rand_rational(rng), rand_rational(rng)) for _ in range(8)]
        A = exact_222(vals)
        cp = charpoly_exact_2_3(A)
        res = resultant_quadratics_2(A)
        assert cp.c8 == -(res * res)


def test_resultant_quadratics_sign():
    # C8 == -Res^2 cannot see the sign of Res, so pin it on known values:
    # Res_x(x1 x2, x1^2 - x2^2) = -1 and Res_x(x1^2, x2^2) = 1
    assert resultant_quadratics_2(exact_222([0, 1, 0, 0, 1, 0, 0, -1])) == gr(-1)
    assert resultant_quadratics_2(exact_222([1, 0, 0, 0, 0, 0, 0, 1])) == gr(1)


def test_charpoly_routes():
    # C2 = 0 here, so the direct route cannot anchor the sextic and the
    # perturbation fallback gives the nonzero result
    cp = charpoly_exact_2_3(exact_222([0, 0, 0, -1, -1, 0, 1, -1]))
    assert cp.coefficients() == (gr(0), gr(0), gr(2), gr(-1))
    assert cp.anchor == "perturbation"
    # the diagonal tensor has the axis eigenvectors (1, 0) and (0, 1); the
    # fixed form 3 x1 + 7 x2 vanishes at neither, so it stays direct
    assert charpoly_exact_2_3(exact_222([1, 0, 0, 0, 0, 0, 0, 1])).anchor == "c2"


def test_charpoly_homogeneity():
    rng = np.random.default_rng(606)
    for _ in range(8):
        vals = [gr(rand_rational(rng), rand_rational(rng)) for _ in range(8)]
        A = exact_222(vals)
        cp = charpoly_exact_2_3(A)
        s = gr(rand_rational(rng, 1, 5, 4), rand_rational(rng, 0, 3, 4))
        if not s:
            s = gr(2)
        sA = exact_222([s * v for v in vals])
        cps = charpoly_exact_2_3(sA)
        for i, (ci, csi) in enumerate(zip(cp.coefficients(), cps.coefficients())):
            assert csi == s ** (2 * (i + 1)) * ci, (i, str(s))


def test_charpoly_diagonal_unit():
    cp = charpoly_exact_2_3(exact_222([1, 0, 0, 0, 0, 0, 0, 1]))
    roots = sorted(cp.roots_numeric(), key=lambda z: (round(z.real, 6), z.imag))
    want = sorted([-1, -1, -(2 ** -0.5), 2 ** -0.5, 1, 1])
    # +-1 are double roots; root extraction there is only sqrt(eps) accurate
    assert np.max(np.abs(np.array(roots) - np.array(want))) < 1e-6


def test_charpoly_evaluate_consistency():
    A = exact_222([1, 0, 0, 0, 0, 0, 0, 1])
    cp = charpoly_exact_2_3(A)
    for lam in (gr(1), gr(-1)):
        assert cp.evaluate(lam) == gr(0)
    assert cp.evaluate(gr(2)) != gr(0)


def test_singularity_independent_of_hyperdeterminant():
    ones = exact_222([1] * 8)
    assert hyperdeterminant_222(ones) == gr(0)
    assert not is_singular_222(ones)
    listed = exact_222(LISTED)
    assert hyperdeterminant_222(listed) == gr(-1)
    assert is_singular_222(listed)


def test_fineprint_charpoly_identically_zero():
    A = exact_222(FINEPRINT)
    cp = charpoly_exact_2_3(A)
    assert cp.is_zero()
    assert cp.coefficients() == (gr(0), gr(0), gr(0), gr(0))
    assert is_singular_222(A)
    with pytest.raises(ValueError):
        cp.roots_numeric()


def test_exact_charpoly_phi_relation():
    # phi(lam^2) reproduces the degree-6 polynomial in lam via evaluate
    rng = np.random.default_rng(707)
    vals = [gr(rand_rational(rng), rand_rational(rng)) for _ in range(8)]
    cp = charpoly_exact_2_3(exact_222(vals))
    lam = gr(Fraction(2, 3), Fraction(1, 4))
    t2 = lam * lam
    direct = ((cp.c2 * t2 + cp.c4) * t2 + cp.c6) * t2 + cp.c8
    assert cp.evaluate(lam) == direct
    assert isinstance(cp, ExactCharPoly)
