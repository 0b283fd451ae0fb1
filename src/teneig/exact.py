"""Exact arithmetic over the Gaussian rationals: resultants, the 2x2x2
hyperdeterminant, and the order-3 dimension-2 characteristic polynomial.

Every determinant is one kernel, ``_det_zi``: fraction-free (Bareiss)
elimination over the Gaussian integers, held as (re, im) pairs of ints,
after the entries are scaled by their common denominator.  The
characteristic polynomial is one binary Sylvester resultant: the
eigenvector cubic x2 (A x^2)_1 - x1 (A x^2)_2 against a quartic that
vanishes at an eigenvector exactly when mu is the square of its
normalized eigenvalue, divided by the square of the cubic's resultant
with a fixed linear form (see ``charpoly_exact_2_3``).  That 7x7
determinant is a cubic in mu, taken as integer determinants at
mu = 0, 1, -1, 2 and interpolated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tensor import Tensor

__all__ = [
    "GaussianRational",
    "ExactCharPoly",
    "sylvester_resultant",
    "hyperdeterminant_222",
    "charpoly_exact_2_3",
    "is_singular_222",
    "resultant_quadratics_2",
]


@dataclass(frozen=True)
class GaussianRational:
    """Element a + b*i with rational a, b; exact field arithmetic."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @classmethod
    def coerce(cls, value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(Fraction(value))
        if isinstance(value, float):
            return cls(Fraction(value))  # exact binary value of the float
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        if isinstance(value, str):
            return cls.from_string(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    @classmethod
    def from_string(cls, s: str) -> "GaussianRational":
        """Parse "p/q", "p/q+r/si", "i", "-2i", "3-i" and similar."""
        body = s.replace(" ", "")
        if not body:
            raise ValueError("empty Gaussian rational literal")
        try:
            return cls._from_string_body(body)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {s!r}") from exc

    @classmethod
    def _from_string_body(cls, body: str) -> "GaussianRational":
        if not body.endswith("i"):
            return cls(Fraction(body))
        body = body[:-1]
        # locate a sign separating real and imaginary parts (not a leading
        # sign and not part of a fraction like 1/2)
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                split = k
                break
        if split == -1:
            re_part, im_part = "", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = Fraction(im_part)
        re = Fraction(re_part) if re_part else Fraction(0)
        return cls(re, im)

    def __str__(self):
        def fmt(q):
            return str(q)

        if self.im == 0:
            return fmt(self.re)
        imag = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{fmt(self.im)}i")
        if self.re == 0:
            return imag
        if self.im > 0 and not imag.startswith("+"):
            imag = "+" + imag
        return f"{fmt(self.re)}{imag}"

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        out = GaussianRational(Fraction(1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


def _zi_scale(values):
    """(D, pairs): the least common denominator D of the Gaussian rationals
    ``values`` and the Gaussian integers D*v as (re, im) pairs of ints."""
    D = math.lcm(*(q.denominator for v in values for q in (v.re, v.im)))
    return D, [(v.re.numerator * (D // v.re.denominator),
                v.im.numerator * (D // v.im.denominator)) for v in values]


def _zq(z, d) -> GaussianRational:
    """The Gaussian integer pair z divided by the integer d, exactly."""
    return GaussianRational(Fraction(z[0], d), Fraction(z[1], d))


def _zmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _zlin(*terms):
    """Sum of c * z over (int c, Gaussian integer pair z) terms."""
    return (sum(c * z[0] for c, z in terms), sum(c * z[1] for c, z in terms))


def _det_zi(rows):
    """Determinant of a square matrix of Gaussian integer pairs.

    Fraction-free Bareiss elimination: every entry update
    (pivot * a_ij - a_ik * a_kj) / previous pivot is a Gaussian integer,
    so the division by the previous pivot p, done as a multiplication by
    conj(p) and floor division by |p|^2, is exact.  A zero pivot swaps
    in a lower row; a zero column ends with determinant 0.
    """
    M = [list(r) for r in rows]
    size = len(M)
    if size == 0:
        return (1, 0)
    sign = 1
    dr, di = 1, 0
    for k in range(size - 1):
        if M[k][k] == (0, 0):
            swap = next((i for i in range(k + 1, size) if M[i][k] != (0, 0)), None)
            if swap is None:
                return (0, 0)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pr, pi = M[k][k]
        row_k = M[k]
        norm = dr * dr + di * di
        for i in range(k + 1, size):
            row_i = M[i]
            ar, ai = row_i[k]
            for j in range(k + 1, size):
                br, bi = row_i[j]
                cr, ci = row_k[j]
                nr = pr * br - pi * bi - ar * cr + ai * ci
                ni = pr * bi + pi * br - ar * ci - ai * cr
                row_i[j] = ((nr * dr + ni * di) // norm, (ni * dr - nr * di) // norm)
        dr, di = pr, pi
    out = M[size - 1][size - 1]
    return out if sign == 1 else (-out[0], -out[1])


def _sylvester(p, q):
    """Sylvester matrix of two coefficient lists, leading first, with
    declared degrees len(p) - 1 and len(q) - 1."""
    dp, dq = len(p) - 1, len(q) - 1
    size = dp + dq
    zero = (0, 0)
    return ([[zero] * s + p + [zero] * (size - s - len(p)) for s in range(dq)]
            + [[zero] * s + q + [zero] * (size - s - len(q)) for s in range(dp)])


def sylvester_resultant(p, q) -> GaussianRational:
    """Resultant of two univariate polynomials with Gaussian-rational
    coefficients, each given as a coefficient list, leading first.

    The declared degrees are ``len(p) - 1`` and ``len(q) - 1``: a zero
    leading coefficient is kept, and the Sylvester matrix has that size.
    A constant has Res(c, q) = c^deg(q).
    """
    p = [GaussianRational.coerce(c) for c in p]
    q = [GaussianRational.coerce(c) for c in q]
    if not p or not q:
        raise ValueError("a polynomial needs at least one coefficient")
    D, z = _zi_scale(p + q)
    det = _det_zi(_sylvester(z[:len(p)], z[len(p):]))
    return _zq(det, D ** (len(p) + len(q) - 2))


def _exact_entries(A: Tensor) -> list:
    """``A.exact``, else the exact binary value of each stored float."""
    values = A.flat() if A.exact is None else A.exact
    return [GaussianRational.coerce(v) for v in values]


def _exact_entries_222(A: Tensor):
    if A.m != 3 or A.n != 2:
        raise ValueError(f"expected an order-3 dimension-2 tensor, got m={A.m}, n={A.n}")
    return _exact_entries(A)


def hyperdeterminant_222(A: Tensor) -> GaussianRational:
    """Hyperdeterminant of a 2x2x2 tensor, exact.

    Degree-4 polynomial in the entries; zero exactly when the associated
    system of two quadratics has a nontrivial common singular point.  It
    is Cayley's discriminant b^2 - 4 a c of the binary quadratic
    det(s A[0] + t A[1]) = a s^2 + b s t + c t^2 in the two slices,
    taken on the entries scaled to Gaussian integers by their common
    denominator D, then divided by D^4.
    """
    D, z = _zi_scale(_exact_entries_222(A))
    p11, p12, p21, p22, q11, q12, q21, q22 = z
    a = _zlin((1, _zmul(p11, p22)), (-1, _zmul(p12, p21)))
    c = _zlin((1, _zmul(q11, q22)), (-1, _zmul(q12, q21)))
    b = _zlin((1, _zmul(p11, q22)), (1, _zmul(q11, p22)),
              (-1, _zmul(p12, q21)), (-1, _zmul(q12, p21)))
    return _zq(_zlin((1, _zmul(b, b)), (-4, _zmul(a, c))), D ** 4)


def _quadratics_zi(z):
    """(A x^2)_1 and (A x^2)_2 at x = (t, 1) as coefficient lists in t,
    leading first, from the flat Gaussian integer entries z."""
    return tuple([z[i], _zlin((1, z[i + 1]), (1, z[i + 2])), z[i + 3]] for i in (0, 4))


def _resultant_quadratics_entries(entries) -> GaussianRational:
    D, z = _zi_scale(entries)
    return _zq(_det_zi(_sylvester(*_quadratics_zi(z))), D ** 4)


def resultant_quadratics_2(A: Tensor) -> GaussianRational:
    """Resultant of the two binary quadratics (A x^2)_1, (A x^2)_2.

    Determinant of the 4x4 Sylvester matrix built with declared degree 2
    in each quadratic, so vanishing leading entries are kept as zeros.
    """
    return _resultant_quadratics_entries(_exact_entries_222(A))



@dataclass(frozen=True)
class ExactCharPoly:
    """Characteristic polynomial C2*t^6 + C4*t^4 + C6*t^2 + C8 of an
    order-3 dimension-2 tensor (t the eigenvalue), exact coefficients.

    In mu = t^2 it is the cubic phi(mu) of ``charpoly_exact_2_3``, with
    C2 = u^2 + v^2 (u = -a111 + a122 + a212 + a221,
    v = a112 + a121 + a211 - a222) and C8 = -Res_x(A x^2)^2.
    """

    c2: GaussianRational
    c4: GaussianRational
    c6: GaussianRational
    c8: GaussianRational

    def coefficients(self) -> tuple:
        return (self.c2, self.c4, self.c6, self.c8)

    def is_zero(self) -> bool:
        return not any(self.coefficients())

    def evaluate(self, lam) -> GaussianRational:
        t = GaussianRational.coerce(lam)
        t2 = t * t
        return ((self.c2 * t2 + self.c4) * t2 + self.c6) * t2 + self.c8

    def roots_numeric(self) -> np.ndarray:
        coeffs = [c.to_complex() for c in (self.c2, self.c4, self.c6, self.c8)]
        full = []
        for c in coeffs[:-1]:
            full.extend([c, 0.0])
        full.append(coeffs[-1])
        arr = np.array(full, dtype=np.complex128)
        nz = np.nonzero(np.abs(arr) > 0)[0]
        if nz.size == 0:
            raise ValueError("zero characteristic polynomial has no root set")
        return np.roots(arr[nz[0]:])


# the linear forms l = a x1 + b x2 tried in turn: their zeros are four
# distinct points, and a nonzero binary cubic vanishes at three at most
_FORMS = ((3, 7), (1, 0), (0, 1), (1, 1))
_MU_NODES = (0, 1, -1, 2)


def _cubic_through(v0, v1, vm, v2):
    """Coefficients (c0, c1, c2, c3) of the integer cubic that takes the
    values v0, v1, vm, v2 at 0, 1, -1, 2; every division is exact."""
    c2 = (v1 + vm) // 2 - v0
    c3 = (v2 - v0 - 4 * c2 - v1 + vm) // 6
    return (v0, (v1 - vm) // 2 - c3, c2, c3)


def charpoly_exact_2_3(A: Tensor) -> ExactCharPoly:
    """Exact characteristic polynomial of an order-3, dimension-2 tensor.

    With f = A x^2, the eigenvectors are the roots of the binary cubic
    g = x2 f1 - x1 f2.  Take a linear form l = a x1 + b x2.  At a root xi
    of g, f(xi) = lam xi, so a f1 + b f2 = lam l(xi), and the binary
    quartic h = mu l^2 (x.x) - (a f1 + b f2)^2 takes the value
    l(xi)^2 ((xi.xi) mu - lam^2).  It vanishes exactly at
    mu = lam^2 / (xi.xi), the squared eigenvalue of xi normalized to
    x.x = 1.  By multiplicativity Res_x(g, h) = Res(g, l)^2 phi(mu), an
    identity in the entries, where phi does not depend on l and its
    coefficients are those of ``ExactCharPoly``.  So phi is one 7x7
    Sylvester determinant divided by Res(g, l)^2, with l the first of
    3 x1 + 7 x2, x1, x2, x1 + x2 on which Res(g, l) != 0.  Only g = 0,
    the positive-dimensional case, leaves none, and there phi = 0.

    The entries are scaled by their common denominator D to Gaussian
    integers.  That scales f and g by D and (a f1 + b f2)^2 by D^2, so
    the determinant at mu is D^10 Res(g, h)(mu / D^2): its mu^k
    coefficient r[k] is D^(10-2k) Res(g, l)^2 C_k.  It is taken at the
    four integer nodes ``_MU_NODES`` and the cubic recovered exactly.
    An all-zero result is exactly the singular-tensor condition.
    """
    D, z = _zi_scale(_exact_entries_222(A))
    f1, f2 = _quadratics_zi(z)
    g = ([_zlin((-1, f2[0]))] + [_zlin((1, f1[k]), (-1, f2[k + 1])) for k in range(2)]
         + [f1[2]])
    for a, b in _FORMS:
        res_l = _det_zi(_sylvester(g, [(a, 0), (b, 0)]))  # D Res(g, l)
        if res_l != (0, 0):
            break
    else:
        return ExactCharPoly(*[GaussianRational()] * 4)
    s2, s1, s0 = (_zlin((a, u), (b, v)) for u, v in zip(f1, f2))
    square = [_zmul(s2, s2), _zlin((2, _zmul(s2, s1))),
              _zlin((1, _zmul(s1, s1)), (2, _zmul(s2, s0))),
              _zlin((2, _zmul(s1, s0))), _zmul(s0, s0)]  # (a f1 + b f2)^2
    ell2_norm = (a * a, 2 * a * b, a * a + b * b, 2 * a * b, b * b)  # l^2 (x.x)
    values = [_det_zi(_sylvester(g, [(mu * w - sq[0], -sq[1])
                                     for w, sq in zip(ell2_norm, square)]))
              for mu in _MU_NODES]
    r = list(zip(*(_cubic_through(*part) for part in zip(*values))))
    # lead = D^2 Res(g, l)^2, so C_k = r[k] conj(lead) / (|lead|^2 D^(8-2k))
    lead = _zmul(res_l, res_l)
    norm = lead[0] * lead[0] + lead[1] * lead[1]
    conj = (lead[0], -lead[1])
    return ExactCharPoly(*(_zq(_zmul(r[k], conj), norm * D ** (8 - 2 * k))
                           for k in (3, 2, 1, 0)))


def is_singular_222(A: Tensor) -> bool:
    """True when the characteristic polynomial vanishes identically.

    Its constant coefficient is C8 = -Res(A x^2)^2, so a nonzero resultant
    of the two quadratics answers False without building the polynomial;
    only on Res = 0 is the whole polynomial needed.
    """
    if _resultant_quadratics_entries(_exact_entries_222(A)):
        return False
    return charpoly_exact_2_3(A).is_zero()
