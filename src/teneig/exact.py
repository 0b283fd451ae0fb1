"""Exact arithmetic over the Gaussian rationals: resultants, the 2x2x2
hyperdeterminant, and the order-3 dimension-2 characteristic polynomial.

Every determinant is one kernel, ``_det_zi``: fraction-free (Bareiss)
elimination over the Gaussian integers, held as (re, im) pairs of ints,
after the entries are scaled by their common denominator.  The
characteristic polynomial is one binary Sylvester resultant: the
eigenvector cubic x2 (A x^2)_1 - x1 (A x^2)_2 against a quartic that
vanishes at an eigenvector exactly when mu is the square of its
normalized eigenvalue (see ``charpoly_exact_2_3``).  That 7x7 determinant
is a cubic in mu, taken as integer determinants at mu = 0, 1, -1, 2 and
interpolated exactly.  The few tensors on which the resultant drops
degree get the same coefficients by exact interpolation along a rational
perturbation line.
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

    ``anchor`` names the route that produced them: "c2" for the binary
    resultant scaled by the closed-form C2, "perturbation" for exact
    interpolation along a perturbation line (see ``charpoly_exact_2_3``).
    """

    c2: GaussianRational
    c4: GaussianRational
    c6: GaussianRational
    c8: GaussianRational
    anchor: str = "c2"

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


# l^2 (x.x) = (3t + 7)^2 (t^2 + 1) at x = (t, 1), leading first
_ELL2_NORM = (9, 42, 58, 42, 49)
_MU_NODES = (0, 1, -1, 2)


def _cubic_through(v0, v1, vm, v2):
    """Coefficients (c0, c1, c2, c3) of the integer cubic that takes the
    values v0, v1, vm, v2 at 0, 1, -1, 2; every division is exact."""
    c2 = (v1 + vm) // 2 - v0
    c3 = (v2 - v0 - 4 * c2 - v1 + vm) // 6
    return (v0, (v1 - vm) // 2 - c3, c2, c3)


def _charpoly_direct(entries):
    """Anchored charpoly from one binary resultant, or None when a guard
    fails: C2 = 0, a vanishing mu^3 coefficient, or C8 != -Res^2.

    The entries are scaled by their common denominator D to Gaussian
    integers.  That scales f = A x^2 and the cubic by D and
    (3 f1 + 7 f2)^2 by D^2, so the 7x7 determinant at mu is
    D^10 R(mu / D^2), R being the resultant of the unscaled forms: its
    mu^k coefficient is D^(10-2k) r_k.  The determinant is taken at the
    four integer nodes ``_MU_NODES`` and the cubic recovered exactly.
    """
    D, z = _zi_scale(entries)
    c2 = _c2_closed_form(z)  # D^2 C2
    if c2 == (0, 0):
        return None
    f1, f2 = _quadratics_zi(z)
    cubic = ([_zlin((-1, f2[0]))] + [_zlin((1, f1[k]), (-1, f2[k + 1])) for k in range(2)]
             + [f1[2]])  # x2 f1 - x1 f2
    s2, s1, s0 = (_zlin((3, u), (7, v)) for u, v in zip(f1, f2))
    square = [_zmul(s2, s2), _zlin((2, _zmul(s2, s1))),
              _zlin((1, _zmul(s1, s1)), (2, _zmul(s2, s0))),
              _zlin((2, _zmul(s1, s0))), _zmul(s0, s0)]  # (3 f1 + 7 f2)^2
    values = [_det_zi(_sylvester(cubic, [(mu * w - sq[0], -sq[1])
                                         for w, sq in zip(_ELL2_NORM, square)]))
              for mu in _MU_NODES]
    r = list(zip(*(_cubic_through(*part) for part in zip(*values))))
    lead = r[3]
    if lead == (0, 0):
        return None
    # r[k] = D^(10-2k) r_k and c2 = D^2 C2, so C2 r_k / r_3 is
    # c2 r[k] conj(r[3]) / (|r[3]|^2 D^(8-2k))
    norm = lead[0] * lead[0] + lead[1] * lead[1]
    conj = (lead[0], -lead[1])
    coeffs = [_zq(_zmul(_zmul(c2, r[k]), conj), norm * D ** (8 - 2 * k))
              for k in (3, 2, 1, 0)]
    res = _det_zi(_sylvester(f1, f2))  # D^4 Res(A x^2)
    if coeffs[3] != -_zq(_zmul(res, res), D ** 8):
        return None
    return ExactCharPoly(*coeffs)


# fixed generic rational direction for the perturbation fallback
_PERTURB_DIRECTION = tuple(
    GaussianRational(Fraction(p, q), Fraction(r, s))
    for p, q, r, s in (
        (1, 1, 1, 2), (-1, 2, 1, 3), (2, 3, -1, 5), (1, 5, 2, 7),
        (-2, 7, 1, 2), (3, 4, -2, 9), (1, 7, 3, 5), (-3, 5, -1, 4),
    )
)
_PERTURB_NODES = tuple(
    Fraction(p, q)
    for p, q in ((1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2),
                 (3, 1), (-3, 1), (1, 3), (-1, 3), (4, 1), (-4, 1),
                 (2, 3), (-2, 3), (5, 1), (-5, 1), (3, 2), (-3, 2))
)


def _charpoly_perturbed(entries) -> ExactCharPoly:
    """Universal coefficients at a degenerate tensor via exact
    interpolation along a generic rational line.

    Each C_i is polynomial of degree <= 8 in the entries, so 9 clean
    samples of A + t*B pin C_i(A + t*B) as a polynomial in t; evaluating
    at t = 0 gives the coefficients of A itself even where the direct
    elimination degenerates (specialization does not commute with
    elimination on the singular variety).
    """
    samples = []
    for t in _PERTURB_NODES:
        cp = _charpoly_direct([e + t * d for e, d in zip(entries, _PERTURB_DIRECTION)])
        if cp is not None:
            samples.append((t, cp.coefficients()))
        if len(samples) == 9:
            break
    if len(samples) < 9:
        raise ArithmeticError("could not find enough clean perturbation samples")
    # the nodes are rational, so the Lagrange weights at t = 0 are too
    weights = [math.prod(-tj / (ti - tj) for tj, _ in samples if tj != ti)
               for ti, _ in samples]
    coeffs = tuple(
        sum((w * vals[k] for w, (_, vals) in zip(weights, samples)), GaussianRational())
        for k in range(4)
    )
    return ExactCharPoly(*coeffs, anchor="perturbation")


def charpoly_exact_2_3(A: Tensor) -> ExactCharPoly:
    """Exact characteristic polynomial of an order-3, dimension-2 tensor.

    With f = A x^2, the eigenvectors are the roots of the binary cubic
    g = x2 f1 - x1 f2.  Fix the linear form l = 3 x1 + 7 x2.  At a root
    xi of g, f(xi) = lam xi, so 3 f1 + 7 f2 = lam l(xi), and the binary
    quartic h = mu l^2 (x.x) - (3 f1 + 7 f2)^2 takes the value
    l(xi)^2 ((xi.xi) mu - lam^2).  It vanishes exactly at
    mu = lam^2 / (xi.xi), the squared eigenvalue of xi normalized to
    x.x = 1.  So Res_x(g, h), a 7x7 Sylvester determinant with entries
    in mu, is lead * prod_i (mu - mu_i), and the even sextic with roots
    +-sqrt(mu_i) is C2 * prod_i (t^2 - mu_i), with C2 anchored to its
    sum-of-squares closed form in the entries.  With that anchoring the
    constant coefficient is the negated square of Res_x(A x^2).

    By multiplicativity lead = Res(g, l)^2 Res(g, x.x): it vanishes when
    g = 0 or when an eigenvector is isotropic or lies on l = 0.  Any
    linear form works off that locus; l is fixed so the result depends
    on no per-tensor choice, and it is not a coordinate form, which
    would vanish at the axis eigenvectors of diagonal and sparse tensors.

    When C2 = 0 or lead = 0 the monic cubic cannot fix the sextic, and
    C8 != -Res^2 would flag a result that is not the specialized
    universal polynomial.  On those tensors the coefficients come from
    exact interpolation along a generic rational perturbation line
    instead.  Either way an all-zero result is exactly the
    singular-tensor condition.
    """
    entries = _exact_entries_222(A)
    direct = _charpoly_direct(entries)
    if direct is not None:
        return direct
    return _charpoly_perturbed(entries)


def _c2_closed_form(z):
    """C2 = u^2 + v^2 on the flat Gaussian integer entries z."""
    a111, a112, a121, a122, a211, a212, a221, a222 = z
    u = _zlin((-1, a111), (1, a122), (1, a212), (1, a221))
    v = _zlin((1, a112), (1, a121), (1, a211), (-1, a222))
    return _zlin((1, _zmul(u, u)), (1, _zmul(v, v)))


def is_singular_222(A: Tensor) -> bool:
    """True when the characteristic polynomial vanishes identically.

    Its constant coefficient is C8 = -Res(A x^2)^2, so a nonzero resultant
    of the two quadratics answers False without building the polynomial;
    only on Res = 0 is the whole polynomial needed.
    """
    if _resultant_quadratics_entries(_exact_entries_222(A)):
        return False
    return charpoly_exact_2_3(A).is_zero()
