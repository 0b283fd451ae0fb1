"""Exact arithmetic over the Gaussian rationals: resultants, the 2x2x2
hyperdeterminant, and the order-3 dimension-2 characteristic polynomial.

The characteristic polynomial is one binary Sylvester resultant: the
eigenvector cubic x2 (A x^2)_1 - x1 (A x^2)_2 against a quartic that
vanishes at an eigenvector exactly when mu is the square of its
normalized eigenvalue (see ``charpoly_exact_2_3``).  The few tensors on
which that resultant drops degree get the same coefficients by exact
interpolation along a rational perturbation line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tensor import Tensor

__all__ = [
    "GaussianRational",
    "ExactPoly",
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


_GR_ZERO = GaussianRational()
_GR_ONE = GaussianRational(Fraction(1))


@dataclass(frozen=True)
class ExactPoly:
    """Multivariate polynomial with GaussianRational coefficients.

    Terms map exponent tuples to coefficients; zero coefficients are
    dropped.  Supports ring arithmetic plus exact division, which is all
    the fraction-free determinant needs.
    """

    nvars: int
    terms: dict
    names: tuple | None = None

    def __post_init__(self):
        clean = {}
        for expo, coeff in self.terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo}")
            c = GaussianRational.coerce(coeff)
            if c:
                clean[expo] = c
        object.__setattr__(self, "terms", clean)
        if self.names is not None:
            names = tuple(str(v) for v in self.names)
            if len(names) != self.nvars:
                raise ValueError("one name per variable required")
            object.__setattr__(self, "names", names)

    def canonical_terms(self) -> tuple:
        """Sorted (exponent vector, coefficient string) pairs, a stable
        text form for golden-file comparison."""
        return tuple((e, str(self.terms[e])) for e in sorted(self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.names or tuple(f"x{k + 1}" for k in range(self.nvars))
        parts = []
        for expo, coeff in self.canonical_terms():
            mono = "*".join(
                f"{names[v]}^{e}" if e > 1 else names[v]
                for v, e in enumerate(expo) if e
            )
            parts.append(f"({coeff})*{mono}" if mono else f"({coeff})")
        return " + ".join(parts)

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: GaussianRational.coerce(value)})

    @classmethod
    def variable(cls, nvars, index):
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): _GR_ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            terms[expo] = terms.get(expo, _GR_ZERO) + c
        return ExactPoly(self.nvars, terms)

    def __neg__(self):
        return ExactPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if expo in terms:
                    terms[expo] = terms[expo] + prod
                else:
                    terms[expo] = prod
        return ExactPoly(self.nvars, terms)

    def __pow__(self, k: int):
        out = ExactPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, ExactPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return ExactPoly.constant(self.nvars, other)

    def _leading(self):
        expo = max(self.terms)  # lex order
        return expo, self.terms[expo]

    def exact_div(self, divisor: "ExactPoly") -> "ExactPoly":
        """Quotient self/divisor, raising if the division is not exact."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        quotient = {}
        rem = dict(self.terms)
        d_expo, d_coef = divisor._leading()
        while rem:
            r_expo = max(rem)
            q_expo = tuple(a - b for a, b in zip(r_expo, d_expo))
            if any(e < 0 for e in q_expo):
                raise ArithmeticError("polynomial division is not exact")
            q_coef = rem[r_expo] / d_coef
            quotient[q_expo] = q_coef
            for expo, c in divisor.terms.items():
                tgt = tuple(a + b for a, b in zip(q_expo, expo))
                new = rem.get(tgt, _GR_ZERO) - q_coef * c
                if new:
                    rem[tgt] = new
                else:
                    rem.pop(tgt, None)
        return ExactPoly(self.nvars, quotient)

    def __truediv__(self, other):
        return self.exact_div(self._coerce(other))

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coeffs_in(self, var: int) -> list:
        """Coefficients of var**k for k = 0..deg, each an ExactPoly with the
        exponent of var zeroed out."""
        deg = self.degree_in(var)
        if deg < 0:
            return []
        buckets = [dict() for _ in range(deg + 1)]
        for expo, c in self.terms.items():
            rest = list(expo)
            k = rest[var]
            rest[var] = 0
            buckets[k][tuple(rest)] = c
        return [ExactPoly(self.nvars, b) for b in buckets]

    def evaluate(self, values) -> GaussianRational:
        out = _GR_ZERO
        for expo, c in self.terms.items():
            term = c
            for v, e in enumerate(expo):
                if e:
                    term = term * (GaussianRational.coerce(values[v]) ** e)
            out = out + term
        return out

    def substitute_zero(self, var: int) -> "ExactPoly":
        terms = {e: c for e, c in self.terms.items() if e[var] == 0}
        return ExactPoly(self.nvars, terms)


def _det_bareiss(rows):
    """Fraction-free determinant; entries need ring ops and exact division."""
    M = [list(r) for r in rows]
    size = len(M)
    if size == 0:
        raise ValueError("empty matrix")
    sign = 1
    prev = None
    for k in range(size - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, size) if M[i][k]), None)
            if swap is None:
                return M[k][k]  # zero column below the diagonal: det is 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = M[k][k] * M[i][j] - M[i][k] * M[k][j]
                M[i][j] = num / prev if prev is not None else num
        prev = M[k][k]
    out = M[size - 1][size - 1]
    return out if sign == 1 else -out


def sylvester_resultant(p: ExactPoly, q: ExactPoly, var: int,
                        deg_p: int | None = None, deg_q: int | None = None) -> ExactPoly:
    """Resultant of p and q with respect to one variable.

    Degrees default to the actual degrees in ``var``; passing larger
    declared degrees builds the corresponding bigger Sylvester matrix
    (zero-padded), and a declared degree below the actual one is an error.
    """
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    zero = ExactPoly(p.nvars, {})
    if p.is_zero() or q.is_zero():
        return zero
    dp = p.degree_in(var) if deg_p is None else deg_p
    dq = q.degree_in(var) if deg_q is None else deg_q
    if dp < p.degree_in(var) or dq < q.degree_in(var):
        raise ValueError("declared degree below actual degree")
    if dp == 0 and dq == 0:
        return ExactPoly.constant(p.nvars, 1)
    if dp == 0:
        return p**dq
    if dq == 0:
        return q**dp
    pc = p.coeffs_in(var) + [zero] * (dp + 1 - len(p.coeffs_in(var)))
    qc = q.coeffs_in(var) + [zero] * (dq + 1 - len(q.coeffs_in(var)))
    size = dp + dq
    rows = []
    pdesc = pc[::-1]  # leading first
    qdesc = qc[::-1]
    for shift in range(dq):
        row = [zero] * size
        for j, c in enumerate(pdesc):
            row[shift + j] = c
        rows.append(row)
    for shift in range(dp):
        row = [zero] * size
        for j, c in enumerate(qdesc):
            row[shift + j] = c
        rows.append(row)
    return _det_bareiss(rows)


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
    system of two quadratics has a nontrivial common singular point.
    """
    e = _exact_entries_222(A)

    def a(i, j, k):  # 1-based indices into the flat entry list
        return e[(i - 1) * 4 + (j - 1) * 2 + (k - 1)]

    two = GaussianRational.coerce(2)
    four = GaussianRational.coerce(4)
    det = (
        a(1, 2, 2) ** 2 * a(2, 1, 1) ** 2
        + a(1, 2, 1) ** 2 * a(2, 1, 2) ** 2
        + a(1, 1, 2) ** 2 * a(2, 2, 1) ** 2
        + a(1, 1, 1) ** 2 * a(2, 2, 2) ** 2
        - two * a(1, 2, 1) * a(1, 2, 2) * a(2, 1, 1) * a(2, 1, 2)
        - two * a(1, 1, 2) * a(1, 2, 2) * a(2, 1, 1) * a(2, 2, 1)
        - two * a(1, 1, 2) * a(1, 2, 1) * a(2, 1, 2) * a(2, 2, 1)
        - two * a(1, 1, 1) * a(1, 2, 2) * a(2, 1, 1) * a(2, 2, 2)
        - two * a(1, 1, 1) * a(1, 2, 1) * a(2, 1, 2) * a(2, 2, 2)
        - two * a(1, 1, 1) * a(1, 1, 2) * a(2, 2, 1) * a(2, 2, 2)
        + four * a(1, 1, 1) * a(1, 2, 2) * a(2, 1, 2) * a(2, 2, 1)
        + four * a(1, 1, 2) * a(1, 2, 1) * a(2, 1, 1) * a(2, 2, 2)
    )
    return det


def _quadratics_222(entries):
    """(A x^2)_1 and (A x^2)_2 at x = (t, 1), as polynomials in (t, mu);
    mu (variable 1) is unused here and enters through the charpoly form."""

    def a(i, j, k):
        return entries[(i - 1) * 4 + (j - 1) * 2 + (k - 1)]

    return tuple(
        ExactPoly(2, {(2, 0): a(i, 1, 1), (1, 0): a(i, 1, 2) + a(i, 2, 1),
                      (0, 0): a(i, 2, 2)})
        for i in (1, 2)
    )


def _resultant_quadratics_entries(entries) -> GaussianRational:
    f1, f2 = _quadratics_222(entries)
    return sylvester_resultant(f1, f2, 0, 2, 2).terms.get((0, 0), _GR_ZERO)


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


def _lagrange_at_zero(nodes, values):
    """Exact Lagrange interpolation evaluated at t = 0."""
    total = _GR_ZERO
    for i, (ti, vi) in enumerate(zip(nodes, values)):
        w = vi
        for j, tj in enumerate(nodes):
            if j != i:
                w = w * (-tj) / (ti - tj)
        total = total + w
    return total


def _charpoly_direct(entries):
    """Anchored charpoly from one binary resultant, or None when a guard
    fails: C2 = 0, a vanishing mu^3 coefficient, or C8 != -Res^2."""
    c2 = _c2_closed_form(entries)
    if not c2:
        return None
    f1, f2 = _quadratics_222(entries)
    t = ExactPoly.variable(2, 0)
    mu = ExactPoly.variable(2, 1)
    ell = t * 3 + 7  # l = 3 x1 + 7 x2
    cubic = f1 - t * f2  # x2 f1 - x1 f2
    quartic = mu * ell * ell * (t * t + 1) - (f1 * 3 + f2 * 7) ** 2
    res = sylvester_resultant(cubic, quartic, 0, 3, 4)
    r0, r1, r2, lead = (res.terms.get((0, k), _GR_ZERO) for k in range(4))
    if not lead:
        return None
    coeffs = [c2, c2 * r2 / lead, c2 * r1 / lead, c2 * r0 / lead]
    res_q = _resultant_quadratics_entries(entries)
    if coeffs[3] != -(res_q * res_q):
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
    GaussianRational(Fraction(p, q))
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
        shifted = [e + t * d for e, d in zip(entries, _PERTURB_DIRECTION)]
        cp = _charpoly_direct(shifted)
        if cp is not None:
            samples.append((t, cp.coefficients()))
        if len(samples) == 9:
            break
    if len(samples) < 9:
        raise ArithmeticError("could not find enough clean perturbation samples")
    nodes = [t for t, _ in samples]
    coeffs = tuple(
        _lagrange_at_zero(nodes, [vals[k] for _, vals in samples])
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


def _c2_closed_form(entries) -> GaussianRational:
    def a(i, j, k):
        return entries[(i - 1) * 4 + (j - 1) * 2 + (k - 1)]

    u = -a(1, 1, 1) + a(1, 2, 2) + a(2, 1, 2) + a(2, 2, 1)
    v = a(1, 1, 2) + a(1, 2, 1) + a(2, 1, 1) - a(2, 2, 2)
    return u * u + v * v


def is_singular_222(A: Tensor) -> bool:
    """True when the characteristic polynomial vanishes identically.

    Its constant coefficient is C8 = -Res(A x^2)^2, so a nonzero resultant
    of the two quadratics answers False without building the polynomial;
    only on Res = 0 is the whole polynomial needed.
    """
    if _resultant_quadratics_entries(_exact_entries_222(A)):
        return False
    return charpoly_exact_2_3(A).is_zero()
