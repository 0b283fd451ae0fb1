"""Tests for exact Gaussian-rational arithmetic, resultants, and certificates."""

from fractions import Fraction

import numpy as np
import pytest

from teneig import exact
from teneig.exact import (
    ExactCharPoly,
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


def test_sylvester_known_values():
    # Res_x(x^2 - a, x - b) = b^2 - a
    for a, b in ((gr(0), gr(0)), (gr(2), gr(3)), (gr(Fraction(1, 2), -1), gr(0, 2)),
                 (gr(-3, Fraction(2, 7)), gr(Fraction(-5, 3)))):
        assert sylvester_resultant([1, 0, -a], [1, -b]) == b * b - a
    # two fixed univariates: Res(x^2 - 1, x - 2) = 3
    assert sylvester_resultant([1, 0, -1], [1, -2]) == gr(3)


def _convolve(p, q):
    out = [gr(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def test_sylvester_multiplicativity_and_swap():
    rng = np.random.default_rng(101)

    def rand_poly(deg):  # coefficient list, leading first, degree pinned
        coeffs = [gr(rand_rational(rng), rand_rational(rng)) for _ in range(deg + 1)]
        return [coeffs[0] or gr(1)] + coeffs[1:]

    for _ in range(6):
        p = rand_poly(2)
        q = rand_poly(2)
        r = rand_poly(1)
        lhs = sylvester_resultant(_convolve(p, q), r)
        rhs = sylvester_resultant(p, r) * sylvester_resultant(q, r)
        assert lhs == rhs
        dp, dq = len(p) - 1, len(q) - 1
        swap = sylvester_resultant(q, p)
        direct = sylvester_resultant(p, q)
        sign = -1 if (dp * dq) % 2 else 1
        assert direct == (swap if sign == 1 else -swap)


def _det_laplace(M):
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det_laplace([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


def test_det_zi_matches_laplace_expansion():
    rng = np.random.default_rng(808)

    def check(M):
        want = _det_laplace([[gr(re, im) for re, im in row] for row in M])
        got = exact._det_zi(M)
        assert gr(*got) == want, M

    for size in (4, 5):
        for _ in range(6):
            M = [[tuple(int(v) for v in rng.integers(-9, 10, 2)) for _ in range(size)]
                 for _ in range(size)]
            check(M)
            M[0][0] = (0, 0)  # a zero leading pivot: the row-swap branch
            check(M)
            check([row[:2] + [(0, 0)] + row[3:] for row in M])  # a zero column
    assert exact._det_zi([]) == (1, 0)


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
    # with C2 = u^2 + v^2, the constant term comes out as the negated
    # square of Res_x(A x^2) on every sampled tensor
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
    # the eigenvectors (1, i) and (1, -i) are isotropic, so C2 = 0
    cp = charpoly_exact_2_3(exact_222([0, 0, 0, -1, -1, 0, 1, -1]))
    assert cp.coefficients() == (gr(0), gr(0), gr(2), gr(-1))
    # the eigenvectors (1, 0), (0, 1) and (7, -3) of diag(3, -7) lie on
    # x2, x1 and 3 x1 + 7 x2, so only the last form x1 + x2 keeps
    # Res(g, l) != 0
    cp = charpoly_exact_2_3(exact_222([3, 0, 0, 0, 0, 0, 0, -7]))
    assert cp.coefficients() == (gr(58), gr(-3805), gr(51156), gr(-194481))
    # the eigenvector (7, -3) lies on 3 x1 + 7 x2 = 0, so the form x1
    # gives the quotient; C2 keeps its closed form and C8 = -Res^2
    vals = [gr(Fraction(61, 49)), 1, 2, 1, gr(Fraction(-3, 7)), 1, -1, 2]
    A = exact_222(vals)
    cp = charpoly_exact_2_3(A)
    assert cp.coefficients() == (
        gr(Fraction(928, 2401)), gr(Fraction(-4037168, 5764801)),
        gr(Fraction(215442026, 5764801)), gr(Fraction(-3713329, 5764801)))
    u = -vals[0] + vals[3] + vals[5] + vals[6]
    v = vals[1] + vals[2] + vals[4] - vals[7]
    assert cp.c2 == u * u + v * v
    assert cp.c8 == -resultant_quadratics_2(A) ** 2


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


def test_singularity_decided_by_the_resultant_first(monkeypatch):
    # C8 = -Res(A x^2)^2, so a nonzero resultant proves the polynomial is
    # not zero: is_singular_222 builds it only when Res = 0
    pool = [0, 1, -1, 2, gr(0, 1), gr(0, -1), gr(Fraction(1, 2)), gr(1, 1)]
    rng = np.random.default_rng(2718)
    tensors = [exact_222([pool[i] for i in rng.integers(0, len(pool), 8)])
               for _ in range(40)] + [exact_222(FINEPRINT), exact_222(LISTED)]
    full = exact.charpoly_exact_2_3
    built = []
    monkeypatch.setattr(exact, "charpoly_exact_2_3",
                        lambda A: built.append(A) or full(A))
    verdicts = []
    for A in tensors:
        built.clear()
        verdicts.append(is_singular_222(A))
        cp = full(A)
        assert verdicts[-1] == cp.is_zero()
        res = resultant_quadratics_2(A)
        assert cp.c8 == -(res * res)
        assert len(built) == (res == gr(0))
    assert 2 <= sum(verdicts) < sum(resultant_quadratics_2(A) == gr(0)
                                    for A in tensors)


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
