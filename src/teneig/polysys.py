"""Polynomial systems for tensor eigenproblems.

A system holds the tensor and evaluates A x^{m-1} by contraction.  With
no fixed eigenvalue it is the homogenized eigen-system over (x, lam) of
an order m >= 3 tensor; with one it is the square shifted system.  The
tensor is symmetrized over modes 2..m once, so that a single chain of
m-2 contractions gives both the values and the Jacobian the path
tracker calls in a tight loop.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def _symmetrize_tail(a: np.ndarray) -> np.ndarray:
    """The mean of ``a`` over all permutations of its axes 1..ndim-1.

    Grows the symmetric block one axis k at a time: the transpositions
    (j k), j < k, and the identity are coset representatives of the
    permutations of axes 1..k-1 in those of 1..k, so k - 1 swaps per
    axis, about m^2/2 in all, replace the (m-1)! permutations.
    """
    s = a
    for k in range(2, a.ndim):
        s = (s + sum(np.swapaxes(s, j, k) for j in range(1, k))) / k
    return np.ascontiguousarray(s)


class PolySystem:
    """F = S x^{m-1} - lam^{m-2} x over (x, lam), or S x^{m-1} - lam x.

    ``lam=None`` gives the eigen-system: n equations homogeneous of
    degree m-1 in n+1 variables, closed by the tracker's linear patch.
    A fixed ``lam`` gives the square system in x alone.  S is the
    tensor symmetrized over modes 2..m; it has the same S x^{m-1} as the
    tensor, and its x-Jacobian is (m-1) S x^{m-2} - lam^{m-2} I.
    """

    def __init__(self, tensor: Tensor, lam: complex | None = None) -> None:
        if lam is None and tensor.m == 2:
            raise ValueError("matrices have no eigen-system; use eigenclasses")
        self.tensor = tensor
        self.lam = None if lam is None else complex(lam)
        self.neq = tensor.n
        self.nvars = tensor.n + (lam is None)
        self.degrees = (tensor.m - 1,) * tensor.n
        self._sym = _symmetrize_tail(tensor.array).reshape(-1)

    @property
    def total_degree(self) -> int:
        """Bezout number: product of declared degrees."""
        return (self.tensor.m - 1) ** self.neq

    def evaluate(self, u: np.ndarray) -> np.ndarray:
        """Values at u: length nvars gives F (n,), a stack (P, nvars) F (P, n)."""
        return self.value_and_jacobian(u)[0]

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        return self.value_and_jacobian(u)[1]

    def value_and_jacobian(self, u: np.ndarray):
        """F and J at u; a stack u (P, nvars) gives F (P, n), J (P, n, nvars).

        S x^{m-2}, an n-by-n matrix per row, takes one matrix product and
        m-3 stacked mat-vecs; for m = 2 it is S itself, broadcast.
        """
        u = np.asarray(u, dtype=np.complex128)
        U = u.reshape(-1, self.nvars)
        m, n = self.tensor.m, self.neq
        x, lam = U[:, :n], U[:, n:]
        M = self._sym.reshape(-1, n)
        if m > 2:
            M = x @ M.T
            for k in range(m - 3):
                M = M.reshape(len(U), n ** (m - 2 - k), n) @ x[:, :, None]
            M = M.reshape(len(U), n, n)
        lam_m3 = lam ** (m - 3)
        shift = self.lam if self.lam is not None else lam_m3 * lam
        J = np.empty((len(U), n, self.nvars), dtype=np.complex128)
        np.multiply(M, m - 1, out=J[:, :, :n])
        J.reshape(len(U), n * self.nvars)[:, :: self.nvars + 1] -= shift
        if self.lam is None:
            J[:, :, n] = -(m - 2) * lam_m3 * x
        F = (M @ x[:, :, None])[:, :, 0] - shift * x
        return (F[0], J[0]) if u.ndim == 1 else (F, J)


def build_eigen_system(A: Tensor) -> PolySystem:
    """The n equations (A x^{m-1})_j - lam^{m-2} x_j over (x, lam).

    Homogeneous of degree m-1 in the n+1 variables.  Matrices (m = 2)
    raise ValueError: `eigenclasses` reads them off np.linalg.eig.
    """
    return PolySystem(A)


def build_shifted_system(A: Tensor, lam: complex) -> PolySystem:
    """Square system A x^{m-1} - lam * x = 0 at a fixed eigenvalue guess."""
    return PolySystem(A, lam)
