"""Spectral reports, closed-form oracles, and singularity probes.

Everything here sits on top of the path tracker: `eigenclasses` runs the
full pipeline (matrices go through np.linalg.eig) and summarizes it; the
remaining operations interpret the classes: real representatives, the
PSD test, the numeric characteristic polynomial, the finiteness probe
(`singular_probe`) and the zero eigenvectors (`zero_eigenvectors`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .homotopy import TrackerConfig, gauss_newton, group_into_classes, track_all
from .polysys import build_eigen_system, build_shifted_system
from .tensor import (
    LAMBDA_ZERO_TOL,
    EigenClass,
    EigenPair,
    PolyForm,
    ProjPoint,
    Tensor,
    canonicalize,
    expected_count,
    key_order,
    key_sorted,
    normalized_eigenvalues,
    tensor_from_form,
)

__all__ = [
    "SpectralReport",
    "ProbeResult",
    "CharPolyNumeric",
    "ZeroLocus",
    "expected_count",
    "eigenclasses",
    "diagonal_classes",
    "real_classes",
    "real_representative",
    "is_positive_semidefinite",
    "characteristic_polynomial_numeric",
    "singular_probe",
    "zero_eigenvectors",
    "shifted_singularity_check",
    "value_multiplicities",
    "FINITE_VALUES",
    "COFINITE_COMPLEMENT",
]

FINITE_VALUES = "finite_values"
COFINITE_COMPLEMENT = "cofinite_complement"

VALUE_MERGE_TOL = 1e-8          # distinct normalized values closer than this merge


@dataclass(frozen=True)
class SpectralReport:
    """Summary of one eigenclass computation.

    Stores what the solve decides: shape, classes, a positive-dimensional
    family, failed paths and degenerate clusters (path count not
    divisible by m - 2, or on no family with a multiplicity the Jacobian
    denies: 1 but singular, or above 1 but nonsingular).  Derives
    ``expected_count`` (the count theorem), ``total_multiplicity``,
    ``isotropic_count`` and ``normalized_values`` (distinct values at
    x.x = 1 representatives, computed once).  ``clean``: no failed path,
    family or degenerate cluster, and the expected total multiplicity.
    """

    m: int
    n: int
    classes: tuple
    positive_dimensional: bool
    failed_paths: int
    degenerate_clusters: int = 0

    @property
    def expected_count(self) -> int:
        return expected_count(self.m, self.n)

    @property
    def total_multiplicity(self) -> int:
        return sum(c.multiplicity for c in self.classes)

    @property
    def isotropic_count(self) -> int:
        return sum(c.isotropic for c in self.classes)

    @cached_property
    def normalized_values(self) -> tuple:
        return _merge_values([v for c in self.classes
                              for v in c.normalized_lambdas])

    @property
    def clean(self) -> bool:
        return (not self.positive_dimensional and self.failed_paths == 0
                and self.degenerate_clusters == 0
                and self.total_multiplicity == self.expected_count)


@dataclass(frozen=True)
class ProbeResult:
    """Verdict of the fixed-eigenvalue witness probe.

    ``kind`` is ``finite_values`` (generic witnesses were never found, the
    attained normalized values are listed in ``values``) or
    ``cofinite_complement`` (every random trial produced a normalized
    witness; ``exceptions`` estimates the finitely many missing values).
    """

    kind: str
    values: tuple = ()
    exceptions: tuple = ()
    trials: int = 0

    @property
    def cofinite(self) -> bool:
        return self.kind == COFINITE_COMPLEMENT


@dataclass(frozen=True)
class CharPolyNumeric:
    """Monic polynomial with the normalized eigenvalues as roots.

    For even order the variable is lambda itself; for odd order the sign
    ambiguity of normalized eigenvalues is absorbed by working in
    mu = lambda^2.  ``indeterminate`` is set instead of coefficients when
    the class picture cannot support the interpolation.
    """

    parity: str                 # "lambda" (even m) or "mu" (odd m)
    coeffs: tuple = ()          # monic, length degree + 1
    degree: int = 0
    indeterminate: bool = False
    reason: str = ""

    def __call__(self, z: complex) -> complex:
        if self.indeterminate:
            raise ValueError("indeterminate polynomial")
        return complex(np.polyval(np.asarray(self.coeffs), z))


@dataclass(frozen=True)
class ZeroLocus:
    """Projective points where the gradient of a form vanishes."""

    points: tuple
    positive_dimensional: bool = False

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def contains(self, coords) -> bool:
        """Whether a point of the locus lies within 1e-6 of `coords`."""
        p = coords if isinstance(coords, ProjPoint) else ProjPoint(coords)
        return any(p.distance(q) <= 1e-6 for q in self.points)


def _bucket_values(pairs, tol: float) -> list:
    """[value, summed weight] buckets of (complex value, weight) pairs.
    In `key_order` of the values, each joins the first bucket whose first
    value w has |v - w| <= tol (1 + |w|), else starts one; so the buckets
    come in key order, each named by its first value."""
    values = np.array([v for v, _ in pairs], dtype=np.complex128)
    buckets: list[list] = []
    for i in key_order(values):
        v, weight = complex(values[i]), pairs[i][1]
        for b in buckets:
            if abs(v - b[0]) <= tol * (1.0 + abs(b[0])):
                b[1] += weight
                break
        else:
            buckets.append([v, weight])
    return buckets


def _merge_values(values) -> tuple:
    """The distinct values, VALUE_MERGE_TOL apart, in key order."""
    return tuple(v for v, _ in _bucket_values([(v, 0) for v in values],
                                              VALUE_MERGE_TOL))


def _matrix_nullspace(mat: np.ndarray, scale: float):
    """Orthonormal nullspace basis columns of a square matrix; `scale` floors
    the rank cutoff, so a tiny A - lam I reads as all-null, not full-rank."""
    _, sv, vh = np.linalg.svd(mat)
    dim = int(np.sum(sv <= 1e-8 * max(sv[0], scale)))
    return vh[sv.size - dim:].conj().T


def _linked(vals: np.ndarray, radius: float) -> list:
    """Index groups of `vals` joined by single linkage at `radius`."""
    groups: list[list[int]] = []
    for i, v in enumerate(vals):
        near = [g for g in groups if np.min(np.abs(vals[g] - v)) <= radius]
        groups = [g for g in groups if g not in near] + [[i] + sum(near, [])]
    return groups


def _matrix_classes(A: Tensor, cfg: TrackerConfig):
    """m = 2: (classes, positive_dimensional, degenerate clusters) by eig.

    Values within `spread(n)`, eig's widest spread of a defective n-fold
    eigenvalue, are linked.  `one` takes a group g as one eigenvalue, its
    mean lam, if M - lam I has a d-dimensional nullspace, no value lies
    beyond spread(b), b = max(2, |g| - d + 1) the longest Jordan block d
    allows, and each eig eigenvector of g lies within 0.1 of the
    nullspace, which distinct eigenvalues placed around one fail.  d > 1
    gives d basis classes and a positive-dimensional report.  Others are
    linked again at halved radii down to `cfg.cluster_radius`; a group of
    several values that still fails there is one degenerate cluster.
    """
    M, n, scale = A.array, A.n, max(1.0, float(np.max(np.abs(A.array))))
    vals, vecs = np.linalg.eig(M)

    def spread(b):
        return 10.0 * scale * (b * np.finfo(float).eps) ** (1.0 / b)

    def one(g):
        lam = complex(np.mean(vals[g]))
        null = _matrix_nullspace(M - lam * np.eye(n), scale)
        off = vecs[:, g] - null @ (null.conj().T @ vecs[:, g])
        ok = (null.shape[1] and np.max(np.linalg.norm(off, axis=0)) <= 0.1
              and np.max(np.abs(vals[g] - lam))
              <= spread(max(2, len(g) - null.shape[1] + 1)))
        return (lam, null) if ok else None

    found, positive_dim, degenerate = [], False, 0      # (lam, x, multiplicity)
    todo = [(g, spread(n)) for g in _linked(vals, spread(n))]
    while todo:
        g, r = todo.pop()
        hit = one(g) if len(g) > 1 else None
        tol = cfg.cluster_radius * (1.0 + float(np.max(np.abs(vals[g]))))
        if hit is None and len(g) > 1 and r > tol:
            r = max(r / 2, tol)
            todo.extend(([g[i] for i in p], r) for p in _linked(vals[g], r))
        elif hit is None:
            degenerate += len(g) > 1
            found.append((np.mean(vals[g]), vecs[:, g[0]], len(g)))
        elif hit[1].shape[1] == 1:
            found.append((hit[0], hit[1][:, 0], len(g)))
        else:
            positive_dim = True
            found.extend((hit[0], x, 1) for x in hit[1].T)
    classes = []
    for lam, x, mult in found:
        pair = canonicalize(EigenPair(lam, x), 2)
        res = float(np.max(np.abs(M @ pair.x - pair.lam * pair.x)))
        classes.append(EigenClass(EigenPair(pair.lam, pair.x, res), mult,
                                  normalized_eigenvalues(pair, 2)))
    return key_sorted(classes), positive_dim, degenerate


def eigenclasses(A: Tensor, cfg: TrackerConfig | None = None) -> SpectralReport:
    """Eigenclasses of A: for m >= 3 from all paths of the eigen-system,
    for matrices from np.linalg.eig (no size cap)."""
    cfg = cfg or TrackerConfig()
    if A.m == 2:
        classes, positive_dim, degenerate = _matrix_classes(A, cfg)
        return SpectralReport(A.m, A.n, classes, positive_dim, 0, degenerate)
    classes, diag = group_into_classes(
        track_all(build_eigen_system(A), cfg), A, cfg)
    return SpectralReport(A.m, A.n, classes, diag.positive_dimensional,
                          diag.failed_paths, diag.degenerate_clusters)


def value_multiplicities(report: SpectralReport) -> tuple:
    """Summed class multiplicity per distinct normalized value.

    Diagnostic view of how the total count distributes over the values;
    isotropic classes carry no value and are left out.  Values within
    1e-6 share a bucket, named by its first value in key order.  Returned
    as ((value, multiplicity), ...) in key order.
    """
    return tuple((v, k) for v, k in _bucket_values(
        [(v, c.multiplicity) for c in report.classes
         for v in c.normalized_lambdas], 1e-6))


def diagonal_classes(a, m: int) -> tuple:
    """Closed-form eigenclasses of the diagonal tensor diag(a), m >= 3.

    Every class has eigenvalue 1; the eigenvector supports run over the
    nonempty subsets of coordinates and each supported coordinate carries
    an independent (m-2)-nd root of unity, counted up to simultaneous
    rotation.  On the support, a_i x_i^{m-2} = 1 forces
    x_i = a_i^{-1/(m-2)} zeta^{s_i}.
    """
    if m < 3:
        raise ValueError("diagonal oracle needs m >= 3")
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 1 or a.size == 0 or np.any(a == 0):
        raise ValueError("diagonal entries must be nonzero")
    n = a.size
    k = m - 2
    zeta = np.exp(2j * np.pi / k)
    base = a ** (-1.0 / k)          # principal branch
    star = -1
    seen: set = set()
    classes = []
    for sigma in itertools.product(tuple(range(k)) + (star,), repeat=n):
        if all(s == star for s in sigma):
            continue
        orbit = min(tuple(star if s == star else (s + i) % k for s in sigma)
                    for i in range(k))
        if orbit in seen:
            continue
        seen.add(orbit)
        x = np.array([0 if s == star else base[i] * zeta ** s
                      for i, s in enumerate(sigma)], dtype=np.complex128)
        resid = float(np.max(np.abs(a * x ** (m - 1) - x)))
        pair = canonicalize(EigenPair(1.0 + 0j, x, residual=resid), m)
        classes.append(EigenClass(representative=pair, multiplicity=1,
                                  normalized_lambdas=normalized_eigenvalues(pair, m)))
    assert len(classes) == expected_count(m, n)
    return key_sorted(classes)


def real_representative(cls: EigenClass, m: int) -> EigenPair | None:
    """Rescale a class representative onto the reals, if possible.

    Tries the unit scalings t = conj-phase of the dominant coordinate
    times each (m-2)-nd root of unity; accepts t when both Im(t x) and
    Im(t^{m-2} lambda) are negligible (1e-6 relative).  Returns the
    realigned pair (with exactly real entries) or None.
    """
    pair = cls.representative
    x = pair.x
    j = int(np.argmax(np.abs(x)))
    t0 = np.conj(x[j]) / abs(x[j])
    k = max(m - 2, 1)
    zeta = np.exp(2j * np.pi / k)
    nx = float(np.linalg.norm(x))
    for i in range(k):
        t = t0 * zeta ** i
        y = t * x
        lam = t ** (m - 2) * complex(pair.lam)
        if (float(np.linalg.norm(y.imag)) <= 1e-6 * nx
                and abs(lam.imag) <= 1e-6 * (1.0 + abs(lam))):
            return EigenPair(lam.real + 0j, y.real.astype(np.complex128),
                             residual=pair.residual)
    return None


def real_classes(report: SpectralReport) -> tuple:
    """Classes of a real tensor possessing a real representative."""
    return tuple(c for c in report.classes
                 if real_representative(c, report.m) is not None)


def is_positive_semidefinite(f: PolyForm,
                             cfg: TrackerConfig | None = None) -> bool:
    """Whether a real form of even degree is PSD on real vectors.

    Equivalent to every real eigenclass of the associated symmetric
    tensor having normalized eigenvalue >= -1e-8 (the minimum of m*f on
    the unit sphere is attained at such a class).

    A lost path, or two paths on one root, can hide the one negative
    class, so a report with a failed path raises RuntimeError, and so
    does any other report that is not clean, unless it is positive-
    dimensional: there the degenerate clusters and the count are the
    family's, not a sign of a lost class, and the verdict rests on the
    classes the solve samples on it, as for (x.x)^2.
    """
    if f.degree % 2:
        raise ValueError("PSD test needs even degree")
    for coeff in f.terms.values():
        if abs(complex(coeff).imag) > 0:
            raise ValueError("PSD test needs real coefficients")
    report = eigenclasses(tensor_from_form(f), cfg)
    if report.failed_paths or not (report.clean
                                   or report.positive_dimensional):
        raise RuntimeError(
            f"report not clean: {report.failed_paths} failed paths, "
            f"{report.degenerate_clusters} degenerate clusters, "
            f"multiplicity {report.total_multiplicity}/"
            f"{report.expected_count}")
    for cls in real_classes(report):
        # real classes are never isotropic, so the value list is nonempty
        if min(v.real for v in cls.normalized_lambdas) < -1e-8:
            return False
    return True


def characteristic_polynomial_numeric(
        A: Tensor, cfg: TrackerConfig | None = None) -> CharPolyNumeric:
    """Monic polynomial vanishing on the normalized eigenvalues.

    Roots are taken with class multiplicities, in lambda for even order
    and in mu = lambda^2 for odd order.  Isotropic classes contribute no
    root (the degree drops below the expected count); a positive-
    dimensional or failed run yields an indeterminate marker.  A matrix
    gets det(lam I - M) from np.poly, never indeterminate.
    """
    parity = "lambda" if A.m % 2 == 0 else "mu"
    if A.m == 2:
        coeffs = np.poly(A.array)
        return CharPolyNumeric(parity, tuple(complex(c) for c in coeffs),
                               degree=A.n)
    report = eigenclasses(A, cfg)
    if not report.clean:
        return CharPolyNumeric(parity, indeterminate=True,
                               reason="positive-dimensional or failed run")
    roots = []
    for c in report.classes:
        if c.isotropic:
            continue
        v = complex(c.normalized_lambdas[0])
        root = v if A.m % 2 == 0 else v * v
        roots.extend([root] * c.multiplicity)
    coeffs = np.atleast_1d(np.poly(np.asarray(roots, dtype=np.complex128)))
    return CharPolyNumeric(parity, tuple(complex(c) for c in coeffs),
                           degree=len(roots))


def singular_probe(A: Tensor, trials: int = 5,
                   cfg: TrackerConfig | None = None) -> ProbeResult:
    """Decide whether normalized eigenvalues fill the plane or a finite set.

    Makes one `eigenclasses` solve.  Each trial fixes a random eigenvalue
    from the annulus 0.5 <= |lam| <= 2 and asks whether some eigenpair
    with x.x = 1 has it: from every non-isotropic class, rescaled to
    x.x = 1, Gauss-Newton on [A x^{m-1} - lam x; x.x - 1; lam - target]
    slides along a family whose normalized value varies, and stalls at
    an isolated class.  A fixed-lam solution is an eigenvector rescaled
    to that eigenvalue, so the classes hold every answer.  Generic
    tensors miss on every trial and the attained values are the report's;
    tensors whose values are cofinite hit on every trial, and a slide to
    lam = 0 estimates the exception set.  The trials must agree, and a
    lost path, which may hide a value, leaves no finite verdict.  All
    slides, trials x classes plus the lam = 0 rows, run as one stacked
    `gauss_newton` call; a trial hits when any of its rows does.
    """
    if trials < 3:
        raise ValueError("need at least 3 trials")
    cfg = cfg or TrackerConfig()
    report = eigenclasses(A, cfg)
    reps = [c.representative for c in report.classes if not c.isotropic]
    roots = np.array([np.sqrt(complex(p.x @ p.x)) for p in reps])
    X0 = np.array([p.x for p in reps]).reshape(-1, A.n) / roots[:, None]
    L0 = np.array([complex(p.lam) for p in reps]) / roots ** (A.m - 2)
    targets = []
    for t in range(trials):
        rng = np.random.default_rng((cfg.seed, 271828, t))
        targets.append(rng.uniform(0.5, 2.0)
                       * np.exp(2j * np.pi * rng.uniform(0.0, 1.0)))
    target = np.repeat(np.array(targets + [0j]), len(reps))

    def rows(idx, X, L):
        J_extra = np.zeros((len(idx), 2, A.n + 1), dtype=np.complex128)
        J_extra[:, 0, :-1] = 2.0 * X
        J_extra[:, 1, -1] = 1.0
        return np.stack([np.sum(X * X, axis=1) - 1.0, L - target[idx]],
                        axis=1), J_extra

    hits = gauss_newton(build_shifted_system(A, 0.0),
                        np.tile(X0, (trials + 1, 1)), np.tile(L0, trials + 1),
                        rows, 1e-7)
    *verdicts, zero = hits.reshape(trials + 1, len(reps)).any(axis=1)
    if any(verdicts) and not all(verdicts):
        raise RuntimeError(
            f"probe trials disagree: {sum(verdicts)}/{len(verdicts)} hits")
    if all(verdicts):
        return ProbeResult(kind=COFINITE_COMPLEMENT,
                           exceptions=() if zero else (0j,), trials=trials)
    if report.failed_paths:
        raise RuntimeError(
            f"{report.failed_paths} failed paths may hide a value")
    return ProbeResult(kind=FINITE_VALUES, values=report.normalized_values,
                       trials=trials)


def _zero_points(report: SpectralReport) -> tuple:
    """Projective points of the report's eigenvalue-zero classes."""
    return tuple(ProjPoint(c.representative.x) for c in report.classes
                 if abs(complex(c.representative.lam)) <= LAMBDA_ZERO_TOL)


def zero_eigenvectors(f: PolyForm,
                      cfg: TrackerConfig | None = None) -> ZeroLocus:
    """Projective points where grad f vanishes (eigenvalue-zero classes).

    For a squarefree form these are exactly the singular points of the
    hypersurface f = 0; a positive-dimensional run is flagged and the
    sampled points are still returned.
    """
    report = eigenclasses(tensor_from_form(f), cfg)
    return ZeroLocus(points=_zero_points(report),
                     positive_dimensional=report.positive_dimensional)


def shifted_singularity_check(f: PolyForm, lam: complex, x,
                              tol: float = 1e-8) -> bool:
    """Certify a normalized eigenpair through the shifted form.

    With g = f - (lam/2) x.x - (1/m - 1/2) lam, the pair (lam, x) with
    x.x = 1 is a normalized eigenpair of the tensor of f exactly when g
    and all its partials vanish at x; this checks both to `tol`.
    """
    if f.degree < 3:
        raise ValueError("shifted check needs degree >= 3")
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    x = np.asarray(x, dtype=np.complex128)
    g = complex(f(x)) - (lam / 2.0) * complex(x @ x) \
        - (1.0 / f.degree - 0.5) * lam
    grad_gap = f.gradient(x) - lam * x
    return abs(g) <= tol and float(np.max(np.abs(grad_gap))) <= tol
