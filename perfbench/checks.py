"""Reference computations made with numpy and fractions alone.

Nothing here imports teneig: every output of the program is checked
against these, so a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

LETTERS = "abcdefghij"


def class_count(m: int, n: int) -> int:
    """Cartwright-Sturmfels count of eigenclasses of a generic tensor."""
    return n if m == 2 else ((m - 1) ** n - 1) // (m - 2)


def contract(arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x^{m-1}: every mode but the first contracted with x (einsum)."""
    m = arr.ndim
    spec = (LETTERS[:m] + "," + ",".join(LETTERS[1:m]) + "->" + LETTERS[0])
    return np.einsum(spec, arr, *([x] * (m - 1)))


def relative_residual(arr: np.ndarray, lam: complex, x: np.ndarray) -> float:
    """|A x^{m-1} - lam x| relative to the sizes of both terms."""
    nx = float(np.linalg.norm(x))
    scale = (float(np.linalg.norm(arr)) * nx ** (arr.ndim - 1)
             + abs(lam) * nx)
    if scale == 0.0:        # A = 0 and lam = 0: both terms vanish exactly
        return 0.0
    return float(np.linalg.norm(contract(arr, x) - lam * x)) / scale


def equivalent_pairs(m: int, lam1, x1, lam2, x2, tol: float = 1e-6) -> bool:
    """(lam1, x1) ~ (lam2, x2) under (lam, x) -> (t^{m-2} lam, t x)."""
    j = int(np.argmax(np.abs(x1)))
    if abs(x2[j]) <= tol * float(np.max(np.abs(x2))):
        return False
    t = x2[j] / x1[j]
    if float(np.max(np.abs(t * x1 - x2))) > tol * float(np.max(np.abs(x2))):
        return False
    lam1t = t ** (m - 2) * lam1
    return abs(lam1t - lam2) <= tol * (1.0 + abs(lam2))


def _binary_coeffs(arr, zero):
    """Coefficients in t of (A x^{m-1})_1, (A x^{m-1})_2 at x = (1, t)."""
    m = arr.ndim
    q = [[zero] * m, [zero] * m]
    for j in range(2):
        for tail in itertools.product(range(2), repeat=m - 1):
            q[j][sum(tail)] += arr[(j,) + tail]
    return q


def binary_eigen_polynomial(arr) -> list:
    """Lowest-first coefficients of x2 (A x^{m-1})_1 - x1 (A x^{m-1})_2.

    At x = (1, t) its roots are the eigenvectors of an n = 2 tensor; it
    vanishes identically exactly when every x is an eigenvector.  Works
    on a numpy array or an object array of Fractions.
    """
    zero = arr.flat[0] * 0
    q1, q2 = _binary_coeffs(arr, zero)
    m = arr.ndim
    return [(q1[k - 1] if k else zero) - (q2[k] if k < m else zero)
            for k in range(m + 1)]


def binary_eigenpairs(arr: np.ndarray) -> list:
    """(lam, x) for every eigenvector of an n = 2 tensor, by np.roots.

    Roots t give x = (1, t).  A drop of d in the degree of the
    eigen-polynomial is the eigenvector x = (0, 1), d times.
    """
    arr = np.asarray(arr, dtype=np.complex128)
    m = arr.ndim
    poly = binary_eigen_polynomial(arr)
    top = max(abs(c) for c in poly)
    deg = max(k for k, c in enumerate(poly) if abs(c) > 1e-14 * top)
    q1, _ = _binary_coeffs(arr, 0j)
    pairs = [(complex(np.polyval(q1[::-1], t)),
              np.array([1.0, t], dtype=np.complex128))
             for t in np.roots(poly[deg::-1])]
    pairs += [(complex(arr[(1,) * m]), np.array([0.0, 1.0], dtype=np.complex128))
              ] * (m - deg)
    return pairs


def normalized_value(m: int, lam: complex, x: np.ndarray) -> complex:
    """lam rescaled to the representative with x.x = 1 (principal root)."""
    return complex(lam * complex(x @ x) ** (-(m - 2) / 2.0))


def newton_eigenpair(arr: np.ndarray, rng: np.random.Generator,
                     starts: int = 60):
    """An eigenpair with lam != 0, by Newton on A x^{m-1} = lam x, c.x = 1.

    Tries random starts until one converges; returns None if none does.
    """
    n, m = arr.shape[0], arr.ndim
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for _ in range(starts):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = x / (c @ x)
        lam = complex(x.conj() @ contract(arr, x) / (x.conj() @ x))
        for _ in range(40):
            Ax = contract(arr, x)
            F = np.concatenate([Ax - lam * x, [c @ x - 1.0]])
            if float(np.max(np.abs(F))) <= 1e-12:
                break
            # the derivative of A x^{m-1} sums one term per contracted
            # mode: that mode left free, the others contracted with x
            J = np.zeros((n + 1, n + 1), dtype=np.complex128)
            for mode in range(1, m):
                sub = np.moveaxis(arr, mode, 1)
                for _ in range(m - 2):
                    sub = sub @ x
                J[:n, :n] += sub
            J[:n, :n] -= lam * np.eye(n)
            J[:n, n] = -x
            J[n, :n] = c
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                break
            x, lam = x + step[:n], lam + step[n]
        if (relative_residual(arr, lam, x) <= 1e-11
                and abs(lam) > 1e-6 * float(np.linalg.norm(arr))
                * float(np.linalg.norm(x)) ** (m - 2)):
            return lam, x
    return None


def cayley_hyperdeterminant(e) -> Fraction:
    """Cayley's 2x2x2 hyperdeterminant of flat entries e[4i + 2j + k]."""
    def a(i, j, k):
        return e[4 * i + 2 * j + k]

    return (a(0, 0, 0) ** 2 * a(1, 1, 1) ** 2
            + a(0, 0, 1) ** 2 * a(1, 1, 0) ** 2
            + a(0, 1, 0) ** 2 * a(1, 0, 1) ** 2
            + a(1, 0, 0) ** 2 * a(0, 1, 1) ** 2
            - 2 * (a(0, 0, 0) * a(0, 0, 1) * a(1, 1, 0) * a(1, 1, 1)
                   + a(0, 0, 0) * a(0, 1, 0) * a(1, 0, 1) * a(1, 1, 1)
                   + a(0, 0, 0) * a(1, 0, 0) * a(0, 1, 1) * a(1, 1, 1)
                   + a(0, 0, 1) * a(0, 1, 0) * a(1, 0, 1) * a(1, 1, 0)
                   + a(0, 0, 1) * a(1, 0, 0) * a(0, 1, 1) * a(1, 1, 0)
                   + a(0, 1, 0) * a(1, 0, 0) * a(0, 1, 1) * a(1, 0, 1))
            + 4 * (a(0, 0, 0) * a(0, 1, 1) * a(1, 0, 1) * a(1, 1, 0)
                   + a(0, 0, 1) * a(0, 1, 0) * a(1, 0, 0) * a(1, 1, 1)))


def distinct(values, tol: float = 1e-8) -> list:
    """The values with near-equal ones (to tol) kept once."""
    out: list = []
    for z in values:
        if not any(abs(z - w) <= tol * (1 + abs(w)) for w in out):
            out.append(z)
    return out


def match_multiset(got, want, tol: float) -> bool:
    """Same complex values with the same multiplicities, to tol."""
    rest = list(want)
    if len(got) != len(rest):
        return False
    for z in got:
        hits = [i for i, w in enumerate(rest) if abs(z - w) <= tol * (1 + abs(w))]
        if not hits:
            return False
        rest.pop(hits[0])
    return True
