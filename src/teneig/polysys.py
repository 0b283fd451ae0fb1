"""Polynomial systems for tensor eigenproblems.

A system stores per-equation term lists over the variables
(x_1, ..., x_n, lam), where lam is the homogenizing eigenvalue variable
of an order m >= 3 tensor.  Evaluation and Jacobian assembly run off
cached dense exponent tables so the path tracker can call them in a
tight loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import Tensor

Term = tuple[tuple[int, ...], complex]


class _EvalTables:
    """Stacked exponent/coefficient arrays shared by value and Jacobian."""

    def __init__(self, neq: int, nvars: int, equations) -> None:
        rows: list[tuple[int, ...]] = []
        coeffs: list[complex] = []
        starts: list[int] = []
        for eq in equations:
            starts.append(len(rows))
            if not eq:
                # keep one zero row so reduceat segments stay aligned
                rows.append((0,) * nvars)
                coeffs.append(0.0)
                continue
            for expo, c in eq:
                rows.append(expo)
                coeffs.append(c)
        self.E = np.array(rows, dtype=np.int64)
        self.c = np.array(coeffs, dtype=np.complex128)
        self.starts = np.array(starts, dtype=np.intp)
        self.cols = np.arange(nvars)[None, :]
        self.maxdeg = int(self.E.max(initial=0))
        self.neq = neq
        self.nvars = nvars
        # value and derivative tables stacked into one block per output
        # column: block 0 is E itself, block 1+j has the exponent of var j
        # dropped and the coefficient scaled by it, so one gather, one prod
        # and one reduceat give F and every column of J
        nrows = len(rows)
        blocks_E = [self.E]
        blocks_c = [self.c]
        for j in range(nvars):
            Ej = self.E.copy()
            blocks_c.append(self.c * Ej[:, j])
            Ej[:, j] = np.maximum(Ej[:, j] - 1, 0)
            blocks_E.append(Ej)
        self.EJ = np.concatenate(blocks_E)
        self.cJ = np.concatenate(blocks_c)
        self.startsJ = (self.starts[None, :]
                        + nrows * np.arange(nvars + 1)[:, None]).reshape(-1)

    def _powers(self, u: np.ndarray) -> np.ndarray:
        pw = np.empty((self.maxdeg + 1, self.nvars), dtype=np.complex128)
        pw[0] = 1.0
        for k in range(1, self.maxdeg + 1):
            pw[k] = pw[k - 1] * u
        return pw

    def value(self, u: np.ndarray) -> np.ndarray:
        pw = self._powers(u)
        mono = np.prod(pw[self.E, self.cols], axis=1) * self.c
        return np.add.reduceat(mono, self.starts)

    def value_jacobian(self, u: np.ndarray):
        pw = self._powers(u)
        mono = np.prod(pw[self.EJ, self.cols], axis=1) * self.cJ
        out = np.add.reduceat(mono, self.startsJ).reshape(self.nvars + 1,
                                                           self.neq)
        return out[0], out[1:].T.copy()


@dataclass(frozen=True)
class PolySystem:
    """Polynomial system with declared per-equation degrees.

    nvars == neq is a square system; nvars == neq + 1 is a homogeneous
    (or affine-deficient) system that the tracker closes with a linear
    patch.
    """

    neq: int
    nvars: int
    equations: tuple
    degrees: tuple

    def __post_init__(self) -> None:
        if len(self.equations) != self.neq or len(self.degrees) != self.neq:
            raise ValueError("equation/degree count mismatch")
        if any(d < 1 for d in self.degrees):
            raise ValueError("declared degrees must be positive")
        for eq, d in zip(self.equations, self.degrees):
            for expo, _ in eq:
                if len(expo) != self.nvars:
                    raise ValueError("exponent arity mismatch")
                if sum(expo) > d:
                    raise ValueError("term degree exceeds declared degree")

    @cached_property
    def _tables(self) -> _EvalTables:
        return _EvalTables(self.neq, self.nvars, self.equations)

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """Values of all equations at u (complex vector of length nvars)."""
        u = np.asarray(u, dtype=np.complex128)
        return self._tables.value(u)

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.complex128)
        return self._tables.value_jacobian(u)[1]

    def value_and_jacobian(self, u: np.ndarray):
        u = np.asarray(u, dtype=np.complex128)
        return self._tables.value_jacobian(u)

    @property
    def total_degree(self) -> int:
        """Bezout number: product of declared degrees."""
        out = 1
        for d in self.degrees:
            out *= d
        return out


def _power_terms(A: Tensor, j: int, nvars: int) -> dict:
    """Terms of (A x^{m-1})_j as exponent-over-nvars -> coefficient."""
    acc: dict[tuple[int, ...], complex] = {}
    n = A.n
    for tail in itertools.product(range(n), repeat=A.m - 1):
        cval = complex(A.array[(j,) + tail])
        if cval == 0:
            continue
        expo = [0] * nvars
        for i in tail:
            expo[i] += 1
        key = tuple(expo)
        acc[key] = acc.get(key, 0.0 + 0.0j) + cval
    return acc


def build_eigen_system(A: Tensor) -> PolySystem:
    """The n equations (A x^{m-1})_j - lam^{m-2} x_j over (x, lam).

    Homogeneous of degree m-1 in the n+1 variables.  Matrices (m = 2)
    raise ValueError: `eigenclasses` reads them off np.linalg.eig.
    """
    m, n = A.m, A.n
    if m == 2:
        raise ValueError("matrices have no eigen-system; use eigenclasses")
    v = n + 1
    eqs = []
    for j in range(n):
        acc = _power_terms(A, j, v)
        expo = [0] * v
        expo[j] = 1
        expo[n] = m - 2
        key = tuple(expo)
        acc[key] = acc.get(key, 0.0 + 0.0j) - 1.0
        eqs.append(tuple((e, c) for e, c in sorted(acc.items()) if c != 0))
    return PolySystem(n, v, tuple(eqs), (m - 1,) * n)


def build_shifted_system(A: Tensor, lam: complex) -> PolySystem:
    """Square system A x^{m-1} - lam * x = 0 at a fixed eigenvalue guess."""
    m, n = A.m, A.n
    eqs = []
    for j in range(n):
        acc = _power_terms(A, j, n)
        expo = [0] * n
        expo[j] = 1
        key = tuple(expo)
        acc[key] = acc.get(key, 0.0 + 0.0j) - complex(lam)
        eqs.append(tuple((e, c) for e, c in sorted(acc.items()) if c != 0))
    return PolySystem(n, n, tuple(eqs), (m - 1,) * n)
