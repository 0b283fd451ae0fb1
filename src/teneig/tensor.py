"""Dense complex tensors, homogeneous forms, and eigenpair equivalence."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Tensor",
    "PolyForm",
    "EigenPair",
    "EigenClass",
    "ProjPoint",
    "apply_power",
    "scalar_form",
    "tensor_from_form",
    "form_from_tensor",
    "canonicalize",
    "equivalent",
    "normalized_eigenvalues",
    "expected_count",
]

# Default classification tolerances.  Isotropy is tested on unit-norm vectors,
# the lambda threshold separates genuine zero eigenvalues from solver noise.
SYMMETRY_TOL = 1e-12
ISOTROPY_TOL = 1e-8
LAMBDA_ZERO_TOL = 1e-8


@dataclass(frozen=True)
class Tensor:
    """Order-``m`` tensor over C with all mode lengths equal to ``n``.

    Entries are kept as a read-only complex array of shape ``(n,)*m``; the
    flat layout is lexicographic with the first index slowest (C order).
    ``exact`` optionally carries the same entries as Gaussian rationals,
    flat in the same order, for the exact-arithmetic routines.
    """

    m: int
    n: int
    array: np.ndarray
    exact: tuple | None = None

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"tensor order must be >= 2, got {self.m}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        arr = np.asarray(self.array, dtype=np.complex128)
        if arr.shape != (self.n,) * self.m:
            raise ValueError(
                f"entry array has shape {arr.shape}, expected {(self.n,) * self.m}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("tensor entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)
        if self.exact is not None and len(self.exact) != self.n**self.m:
            raise ValueError("exact entry count does not match n**m")

    @classmethod
    def from_flat(cls, m, n, values, exact=None):
        """Build from a flat sequence of n**m entries, first index slowest."""
        flat = np.asarray(list(values), dtype=np.complex128)
        if flat.size != n**m:
            raise ValueError(f"expected {n**m} entries, got {flat.size}")
        return cls(m, n, flat.reshape((n,) * m), exact)

    def __getitem__(self, idx):
        return complex(self.array[idx])

    @cached_property
    def is_symmetric(self) -> bool:
        """True when every mode permutation leaves the entries unchanged;
        the m - 1 adjacent swaps generate them all, so they decide it."""
        scale = max(1.0, float(np.max(np.abs(self.array))))
        return all(np.max(np.abs(self.array - np.swapaxes(self.array, i, i + 1)))
                   <= SYMMETRY_TOL * scale for i in range(self.m - 1))

    def flat(self) -> np.ndarray:
        return self.array.reshape(-1)


@dataclass(frozen=True)
class PolyForm:
    """Homogeneous polynomial of fixed degree in ``nvars`` variables.

    ``terms`` maps exponent tuples (one entry per variable, summing to the
    degree) to complex coefficients; zero coefficients are not stored.
    """

    degree: int
    nvars: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for expo, coeff in self.terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for {self.nvars} variables")
            if sum(expo) != self.degree:
                raise ValueError(
                    f"exponent tuple {expo} has degree {sum(expo)}, expected {self.degree}"
                )
            c = complex(coeff)
            if c != 0:
                clean[expo] = c
        object.__setattr__(self, "terms", clean)

    def __call__(self, x) -> complex:
        x = np.asarray(x, dtype=np.complex128)
        total = 0.0 + 0.0j
        for expo, coeff in self.terms.items():
            total += coeff * np.prod(x ** np.asarray(expo))
        return complex(total)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        grad = np.zeros(self.nvars, dtype=np.complex128)
        for expo, coeff in self.terms.items():
            for v, e in enumerate(expo):
                if e == 0:
                    continue
                d = list(expo)
                d[v] -= 1
                grad[v] += coeff * e * np.prod(x ** np.asarray(d))
        return grad

    def coefficient(self, expo) -> complex:
        return self.terms.get(tuple(expo), 0.0 + 0.0j)


@dataclass(frozen=True)
class EigenPair:
    """One eigenvector/eigenvalue pair ``A x^{m-1} = lam * x`` with x != 0."""

    lam: complex
    x: np.ndarray
    residual: float | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.complex128).copy()
        if x.ndim != 1 or x.size == 0:
            raise ValueError("eigenvector must be a nonempty 1-d array")
        if not np.any(x != 0):
            raise ValueError("eigenvector must be nonzero")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "lam", complex(self.lam))


@dataclass(frozen=True)
class EigenClass:
    """Equivalence class of eigenpairs under the rescaling action.

    ``representative`` is in canonical form, ``multiplicity`` counts the
    class with the algebraic weight it carries in the total count, and
    ``normalized_lambdas`` lists the eigenvalue(s) at a representative
    scaled to x.x = 1 (empty when the class is isotropic).
    """

    representative: EigenPair
    multiplicity: int
    normalized_lambdas: tuple = ()
    cluster_size: int = 0
    condition: float = 0.0

    @property
    def isotropic(self) -> bool:
        """x.x = 0 at the representative: no rescaling reaches x.x = 1."""
        return not self.normalized_lambdas


@dataclass(frozen=True)
class ProjPoint:
    """Point of complex projective space with a canonical representative.

    Coordinates are stored at unit 2-norm with the dominant coordinate
    rotated onto the positive real axis, so two noisy copies of the same
    point have nearly identical coordinate vectors.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.coords, dtype=np.complex128)
        if v.ndim != 1 or v.size == 0 or not np.any(v):
            raise ValueError("projective point needs a nonzero vector")
        v = v / np.linalg.norm(v)
        pivot = v[_dominant_index(v)]
        v = v * (abs(pivot) / pivot)
        v.setflags(write=False)
        object.__setattr__(self, "coords", v)

    @property
    def n(self) -> int:
        return self.coords.size

    def distance(self, other: "ProjPoint") -> float:
        """Max-norm gap between the canonical representatives."""
        if self.coords.size != other.coords.size:
            raise ValueError("ambient dimensions differ")
        return float(np.max(np.abs(self.coords - other.coords)))

    def __repr__(self) -> str:  # (a : b : ...) with trimmed zeros
        parts = ", ".join(f"{z:.6g}" for z in self.coords)
        return f"ProjPoint([{parts}])"


def expected_count(m: int, n: int) -> int:
    """Number of eigenvalue classes, counted with multiplicity.

    Equals ((m-1)**n - 1) / (m-2) for m >= 3 and n for matrices.
    """
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    if m == 2:
        return n
    return ((m - 1) ** n - 1) // (m - 2)


def apply_power(A: Tensor, x) -> np.ndarray:
    """Contract all but the first mode with copies of ``x``.

    Returns the vector with components sum_{i_2..i_m} A[j,i_2,..,i_m]
    x[i_2] .. x[i_m]; for a matrix this is the ordinary product A @ x.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (A.n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({A.n},)")
    v = A.array
    for _ in range(A.m - 1):
        v = v @ x
    return v


def scalar_form(A: Tensor, x) -> complex:
    """Full contraction x . (A x^{m-1}), a degree-m form in x."""
    x = np.asarray(x, dtype=np.complex128)
    return complex(np.dot(x, apply_power(A, x)))


def _multiset_factorial(expo) -> int:
    out = 1
    for e in expo:
        out *= math.factorial(e)
    return out


def tensor_from_form(f: PolyForm) -> Tensor:
    """Symmetric tensor whose scalar form recovers ``m * f``.

    Every index tuple with content alpha receives the entry
    m * c_alpha * alpha! / m!, so the gradient identity
    apply_power(A, x) = grad f(x) holds exactly in exact arithmetic.
    """
    m, n = f.degree, f.nvars
    if m < 2:
        raise ValueError("form degree must be >= 2")
    arr = np.zeros((n,) * m, dtype=np.complex128)
    mfact = math.factorial(m)
    entries = [m * coeff * _multiset_factorial(expo) / mfact
               for expo, coeff in f.terms.items()]
    # each index tuple once, m!/expo! per term: extend every prefix (after
    # its term's number) by every variable its term has not used up
    idx = np.arange(len(entries))[:, None]
    left = np.array(list(f.terms), dtype=int).reshape(len(entries), n)
    for _ in range(m):
        r, v = np.nonzero(left)
        idx, left = np.column_stack([idx[r], v]), left[r]
        left[np.arange(len(r)), v] -= 1
    arr[tuple(idx[:, 1:].T)] = np.array(entries, dtype=np.complex128)[idx[:, 0]]
    return Tensor(m, n, arr)


def form_from_tensor(A: Tensor) -> PolyForm:
    """Inverse of :func:`tensor_from_form`; requires a symmetric tensor."""
    if not A.is_symmetric:
        raise ValueError("form extraction needs a symmetric tensor")
    m, n = A.m, A.n
    mfact = math.factorial(m)
    terms = {}
    for combo in itertools.combinations_with_replacement(range(n), m):
        entry = A[combo]
        if entry == 0:
            continue
        expo = tuple(combo.count(v) for v in range(n))
        terms[expo] = entry * mfact / (_multiset_factorial(expo) * m)
    return PolyForm(m, n, terms)


def _dominant_index(x: np.ndarray) -> int:
    # lowest index whose modulus ties the max; the relative tolerance keeps
    # the choice stable across endpoints that differ only by tracking noise
    a = np.abs(x)
    return int(np.argmax(a >= (1.0 - 1e-7) * float(np.max(a))))


def _first_significant(x: np.ndarray) -> int:
    cutoff = 1e-8 * float(np.max(np.abs(x)))
    for j, v in enumerate(x):
        if abs(v) > cutoff:
            return j
    return int(np.argmax(np.abs(x)))


def canonicalize(pair: EigenPair, m: int) -> EigenPair:
    """Canonical representative under (lam, x) ~ (t**(m-2) lam, t x).

    Matrices keep lam and scale the dominant coordinate to 1.  For m >= 3
    and lam away from zero the class is rescaled to lam = 1, choosing among
    the (m-2) remaining scalings the one whose first significant coordinate
    has argument in [0, 2*pi/(m-2)).  Near-zero lam falls back to the
    dominant-coordinate normalization with lam set to exactly 0.
    """
    x = np.asarray(pair.x, dtype=np.complex128)
    lam = complex(pair.lam)
    if m == 2:
        return EigenPair(lam, x / x[_dominant_index(x)], pair.residual)
    if abs(lam) <= LAMBDA_ZERO_TOL:
        return EigenPair(0.0, x / x[_dominant_index(x)], pair.residual)
    k = m - 2
    t0 = (1.0 / lam) ** (1.0 / k)  # principal root
    j = _first_significant(x)
    zeta = np.exp(2j * np.pi / k)
    best = None
    best_theta = None
    for i in range(k):
        t = t0 * zeta**i
        # the small offset snaps arguments sitting on a window boundary to a
        # single side, so noisy copies of one class pick the same scaling
        theta = (float(np.angle(t * x[j])) + 1e-7) % (2 * np.pi)
        if best_theta is None or theta < best_theta:
            best_theta = theta
            best = t
    return EigenPair(1.0, best * x, pair.residual)


def equivalent(p: EigenPair, q: EigenPair, m: int, tol: float = 1e-8) -> bool:
    """True when the two pairs lie in the same rescaling class."""
    if p.x.shape != q.x.shape:
        return False
    cp, cq = canonicalize(p, m), canonicalize(q, m)
    if abs(cp.lam - cq.lam) > tol:
        return False
    return bool(np.max(np.abs(cp.x - cq.x)) <= tol * max(1.0, float(np.max(np.abs(cp.x)))))


def normalized_eigenvalues(pair: EigenPair, m: int) -> tuple:
    """Eigenvalue(s) after rescaling the pair to x.x = 1.

    Returns both signs for odd m and the single value for even m; the empty
    tuple when x is isotropic (|x.x| <= ISOTROPY_TOL at unit 2-norm), since
    no such rescaling exists.
    """
    x = np.asarray(pair.x, dtype=np.complex128)
    w = x / np.linalg.norm(x)
    s = complex(np.dot(w, w))
    if abs(s) <= ISOTROPY_TOL:
        return ()
    lam_unit = complex(pair.lam) / np.linalg.norm(x) ** (m - 2)
    t = 1.0 / np.sqrt(s)  # principal branch
    val = complex(t ** (m - 2) * lam_unit)
    if m % 2 == 1:
        return (val, -val)
    return (val,)


def key_order(rows) -> np.ndarray:
    """The stable order of `rows`, equal-length sequences of complex
    numbers (a 1-d array is a column), compared by the real and
    imaginary part of each entry in turn, rounded to 7 decimals: last-bit
    noise, such as in the real parts of a conjugate pair, cannot swap two
    rows.  Eigenclasses are ordered by their representatives (lam, *x)."""
    if not len(rows):
        return np.zeros(0, dtype=int)
    Y = np.array(rows, dtype=np.complex128).reshape(len(rows), -1)
    return np.lexsort(np.round(Y.view(float), 7).T[::-1])


def key_sorted(classes) -> tuple:
    """The eigenclasses in `key_order` of their representatives."""
    order = key_order([(c.representative.lam, *c.representative.x)
                       for c in classes])
    return tuple(classes[i] for i in order)
