"""The projective self-map x -> A x^{m-1}: orbits, base locus, nilpotency.

Fixed points of the map are the eigenvectors with nonzero eigenvalue and
the base locus collects the eigenvalue-zero ones, so everything here is a
dynamical reading of the spectral data.  Nilpotency ("some iterate is
undefined everywhere") is decided exactly by one orbit of n steps, in
Gaussian integers (see ``nilpotency``); no iterate is ever expanded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import _exact_entries, _zi_scale
from .homotopy import TrackerConfig
from .spectra import SpectralReport, _zero_points, eigenclasses
from .tensor import (
    LAMBDA_ZERO_TOL,
    EigenClass,
    ProjPoint,
    Tensor,
    apply_power,
)

__all__ = [
    "ProjPoint",
    "BaseLocusHit",
    "Orbit",
    "NilpotencyVerdict",
    "psi",
    "orbit",
    "base_locus",
    "nilpotency",
    "NILPOTENT",
    "NOT_NILPOTENT",
    "UNDETERMINED",
]

BASE_LOCUS_TOL = 1e-12          # |A x^{m-1}| below this (unit x) is a base point
FIXED_POINT_TOL = 1e-10         # successive orbit points closer than this stop

NILPOTENT = "nilpotent"
NOT_NILPOTENT = "not_nilpotent"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class BaseLocusHit:
    """The map is undefined at ``point``: A x^{m-1} vanishes there."""

    point: ProjPoint


@dataclass(frozen=True)
class Orbit:
    """Forward orbit of a point, with the reason iteration stopped.

    ``fixed_point`` is set when two successive points agreed to
    FIXED_POINT_TOL; ``eigenvalue``/``eigen_residual`` then record the
    cross-check of the terminal point as an eigenvector.
    """

    points: tuple
    base_locus_hit: bool = False
    fixed_point: bool = False
    eigenvalue: complex | None = None
    eigen_residual: float | None = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]


@dataclass(frozen=True)
class NilpotencyVerdict:
    """Tri-state nilpotency answer.

    ``k`` is the least vanishing iterate for a nilpotent verdict, 0 for a
    not-nilpotent one and ``max(kmax, n)`` for an undetermined one;
    ``witness`` carries a class with nonzero eigenvalue (a fixed point) in
    the not-nilpotent case.
    """

    status: str
    k: int = 0
    witness: EigenClass | None = None

    @property
    def is_nilpotent(self) -> bool:
        return self.status == NILPOTENT


def _as_point(p) -> ProjPoint:
    return p if isinstance(p, ProjPoint) else ProjPoint(np.asarray(p))


def psi(A: Tensor, p) -> ProjPoint | BaseLocusHit:
    """One application of the self-map; BaseLocusHit where it is undefined."""
    p = _as_point(p)
    v = apply_power(A, p.coords)
    if float(np.linalg.norm(v)) <= BASE_LOCUS_TOL:
        return BaseLocusHit(p)
    return ProjPoint(v)


def orbit(A: Tensor, p0, kmax: int) -> Orbit:
    """Iterate psi from p0, stopping at a fixed point, a base point, or kmax.

    A detected fixed point is cross-checked as an eigenvector: the
    recorded eigenvalue is the Rayleigh quotient at the unit
    representative and ``eigen_residual`` its defect, which is tiny
    exactly when the point is a genuine nonzero-eigenvalue eigenvector.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    p = _as_point(p0)
    pts = [p]
    for _ in range(kmax):
        nxt = psi(A, p)
        if isinstance(nxt, BaseLocusHit):
            return Orbit(points=tuple(pts), base_locus_hit=True)
        if nxt.distance(p) <= FIXED_POINT_TOL:
            x = p.coords
            v = apply_power(A, x)
            lam = complex(np.conj(x) @ v)
            res = float(np.max(np.abs(v - lam * x)))
            return Orbit(points=tuple(pts), fixed_point=True,
                         eigenvalue=lam, eigen_residual=res)
        pts.append(nxt)
        p = nxt
    return Orbit(points=tuple(pts))


def base_locus(A: Tensor, cfg: TrackerConfig | None = None,
               report: SpectralReport | None = None) -> tuple:
    """Projective points of the eigenvalue-zero classes (map undefined);
    ``report`` may pass in ``eigenclasses(A, cfg)`` already computed."""
    if report is None:
        report = eigenclasses(A, cfg)
    return _zero_points(report)


def nilpotency(A: Tensor, kmax: int, cfg: TrackerConfig | None = None,
               report: SpectralReport | None = None) -> NilpotencyVerdict:
    """Decide whether some iterate psi^k of psi: x -> A x^{m-1} is zero.

    psi is nilpotent if and only if psi^n = 0, for every m.  The closures
    V_j of psi^j(C^n) are irreducible cones and V_{j+1} is the closure of
    psi(V_j), so the chain V_0 >= V_1 >= ... stays put once one inclusion
    is an equality; a chain that ends at {0} loses a dimension at every
    step until then, so V_n = {0}.  psi^k is evaluated exactly for
    k = 1..n at one point whose coordinates have real and imaginary parts
    drawn from the integers in [-2^20, 2^20) by ``cfg.seed``, with
    ``A.exact`` as the entries, or else the exact binary value of each
    stored float.  The entries are scaled by their common denominator D,
    and psi_{DA}^k is a nonzero multiple of psi_A^k, so the orbit runs on
    Gaussian integers: the real and imaginary parts as two object arrays
    of ints.  A nonzero value proves psi^k != 0, and a nonzero psi^k
    vanishes there with probability at most (m-1)^k / 2^42
    (Schwartz-Zippel: 2^42 choices per coordinate, degree (m-1)^k).

    Nilpotent(k) for the first, hence least, vanishing k.  Otherwise
    NotNilpotent(witness) when ``eigenclasses`` finds a class with nonzero
    eigenvalue (a fixed point of every iterate), else Undetermined with
    k = max(kmax, n); ``report`` may pass in ``eigenclasses(A, cfg)``.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    rng = np.random.default_rng((cfg or TrackerConfig()).seed)
    xr, xi = (np.array([int(v) for v in part], dtype=object) for part in
              rng.integers(-2 ** 20, 2 ** 20, (A.n, 2)).T)
    er, ei = (np.array(part, dtype=object).reshape((A.n,) * A.m)
              for part in zip(*_zi_scale(_exact_entries(A))[1]))
    for k in range(1, A.n + 1):
        vr, vi = er, ei
        for _ in range(A.m - 1):  # v = A x^{m-1}
            vr, vi = vr @ xr - vi @ xi, vr @ xi + vi @ xr
        if not (any(vr) or any(vi)):
            return NilpotencyVerdict(NILPOTENT, k=k)
        xr, xi = vr, vi
    if report is None:
        report = eigenclasses(A, cfg)
    for cls in report.classes:
        if abs(complex(cls.representative.lam)) > LAMBDA_ZERO_TOL:
            return NilpotencyVerdict(NOT_NILPOTENT, witness=cls)
    return NilpotencyVerdict(UNDETERMINED, k=max(kmax, A.n))
