"""Total-degree homotopy tracking and endpoint clustering.

Paths follow the gamma-trick family H(u, t) = gamma (1-t) G(u) + t F(u)
with start system G_j = u_j^d - b_j.  The target is the homogenized
eigen-system, one more variable than equations, closed with a random
affine patch <c, u> = 1 that is held exact throughout.  The predictor is
a fourth-order explicit step on the Davidenko ODE, the corrector plain
Newton.  Endpoints that land on singular roots (clusters of coalescing
paths, e.g. the multiplicity m-2 bundles at lam = 0) are finished by the
Cauchy-integral endgame of `endgame.py`.

All paths of a solve advance in lockstep (as in HomotopyContinuation.jl,
Breiding and Timme, ICMS 2018): each path's t, step and tangent are
arrays, and each round makes one stacked predictor/corrector step.  A
path's next step follows the corrector's total correction e on its last
one, h clip(0.9 (STEP_TOL/e)^(1/5), 1/2, 4), with no growth right after
a rejection (step control from the path's own local error, as in Telen,
Van Barel and Verschelde, SISC 2020).  The corrector's last solve takes
-dH/dt as a second right-hand side, which is the next predictor's first
stage.  A regular root is reached by one path only, so two regular
endpoints on one point mean a path jumped; both are tracked again at a
1000-fold tighter STEP_TOL.

`group_into_classes` decides every class where it lies, from the
endpoints of the one solve: the Jacobian condition in the unit chart
tells a singular class from a simple one, and a Gauss-Newton slide onto
a slice off the class tells a family from an isolated root (the local
dimension test of Bates, Hauenstein, Peterson and Sommese, SINUM 2009).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .polysys import PolySystem, build_shifted_system
from .tensor import (
    EigenClass,
    EigenPair,
    Tensor,
    canonicalize,
    key_order,
    key_sorted,
    normalized_eigenvalues,
)

CONVERGED = "converged"
STEP_UNDERFLOW = "step_underflow"

ACCEPT_RESIDUAL = 1e-9          # max-norm residual for a converged endpoint
REFINE_TARGET = 1e-12           # endpoint Newton refinement goal
TRIVIAL_X = 1e-8                # |x| below this fraction of |u| is the zero solution
POSITIVE_DIM_COND = 1e10        # unit-chart Jacobian condition of a singular class
ENDGAME_RADIUS = 1e-6           # outer circle radius around t = 1
MAX_STEPS = 6000                # hard per-path step budget
INITIAL_STEP = 0.05             # first step in t; STEP_TOL sets the later ones
STEP_TOL = 1e-3                 # relative corrector correction a step aims at
MIN_STEP = 1e-7                 # a path whose step falls below this fails
CORRECTOR_TOL = 1e-11           # Newton update size that ends a correction
MAX_CORRECTOR_ITERS = 3         # Newton iterations per predictor step
MAX_STACK_ENTRIES = 5 * 10**7   # (m-1)^n paths x n^(m-1), a stacked product


@dataclass(frozen=True)
class TrackerConfig:
    """The tracker's seed, from which gamma, the patch and the start
    system are drawn, and the endpoint clustering radius."""

    seed: int = 20100306
    cluster_radius: float = 1e-6

    def __post_init__(self) -> None:
        if self.cluster_radius <= 0:
            raise ValueError("cluster_radius must be positive")


@dataclass(frozen=True)
class PathOutcome:
    """One tracked path: CONVERGED with its endpoint in the chart, or lost."""

    status: str
    endpoint: np.ndarray | None
    residual: float
    steps: int = 0
    winding: int = 0

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


@dataclass(frozen=True)
class GroupDiagnostics:
    failed_paths: int
    trivial_paths: int
    degenerate_clusters: int
    positive_dimensional: bool


class _Homotopy:
    """H(u, t) = gamma (1-t) (u_j^d - b_j) + t F_j(u), plus patch row;
    every equation of a PolySystem has the same degree d = m - 1."""

    def __init__(self, system: PolySystem, gamma: complex,
                 b: np.ndarray, patch: np.ndarray) -> None:
        self.sys = system
        self.neq = system.neq
        self.v = system.nvars
        self.gamma = gamma
        self.b = b
        self.d = system.degrees[0]
        self.patch = patch

    def start_points(self) -> np.ndarray:
        """All d^neq start solutions of G, lifted to the patch chart."""
        ks = np.array(list(itertools.product(range(self.d), repeat=self.neq)))
        U = np.zeros((len(ks), self.v), dtype=np.complex128)
        U[:, : self.neq] = self.b ** (1.0 / self.d) * np.exp(2j * np.pi * ks / self.d)
        c = self.patch
        U[:, -1] = (1.0 - U[:, : self.neq] @ c[: self.neq]) / c[-1]
        return U

    def target_residual(self, U: np.ndarray) -> np.ndarray:
        """Max-norm residual of F and the patch at each row of U."""
        return np.maximum(np.abs(self.sys.value_and_jacobian(U)[0]).max(axis=1),
                          np.abs(U @ self.patch - 1.0))

    def _assemble(self, U: np.ndarray, t: np.ndarray):
        """H (P, v) and its u-Jacobians (P, v, v) at the rows of U, row p
        at t[p], plus the F and g they came from."""
        F, JF = self.sys.value_and_jacobian(U)
        un = U[:, : self.neq]
        un_d1 = un ** (self.d - 1)
        g = un_d1 * un - self.b
        s = (self.gamma * (1.0 - t))[:, None]
        H = np.empty(U.shape, dtype=np.complex128)
        J = np.empty(U.shape + (self.v,), dtype=np.complex128)
        H[:, : self.neq] = s * g + t[:, None] * F
        np.multiply(t[:, None, None], JF, out=J[:, : self.neq])
        J.reshape(len(U), self.v * self.v)[
            :, : self.neq * (self.v + 1) : self.v + 1] += s * self.d * un_d1
        H[:, self.neq] = U @ self.patch - 1.0
        J[:, self.neq] = self.patch
        return H, J, F, g

    def tangent(self, U: np.ndarray, t: np.ndarray):
        """du/dt from the Davidenko ODE J_u du = -dH/dt, row by row."""
        _, J, F, g = self._assemble(U, t)
        rhs = np.zeros(U.shape, dtype=np.complex128)
        rhs[:, : self.neq] = self.gamma * g - F
        return _solve(J, rhs)

    def newton(self, U: np.ndarray, t: np.ndarray, tol: float, iters: int):
        """Newton on each row of U at its own t.

        Returns the rows, a converged mask, each row's total correction
        relative to 1 + |u|, and du/dt at each row: every solve takes
        -dH/dt as a second right-hand side, so a converged row comes with
        the tangent its next predictor starts from, taken before the last
        (small) update; NaN where no solve was made.

        A row is done on a small update, or on a residual at the machine
        floor: near rank-deficient roots the update stagnates around
        cond*eps while the residual is already exact.  Done rows leave
        the stack; a singular Jacobian fails only its own row.
        """
        U0 = U
        U = U.copy()
        K = np.full_like(U, np.nan)
        ok = np.zeros(len(U), dtype=bool)
        live = np.arange(len(U))
        for it in range(iters + 1):
            if not live.size:
                break
            H, J, F, g = self._assemble(U[live], t[live])
            floor = np.abs(H).max(axis=1) <= 1e-13
            ok[live[floor]] = True
            if it == iters:
                break
            rhs = np.zeros(H.shape + (2,), dtype=np.complex128)
            rhs[:, :, 0] = -H
            rhs[:, : self.neq, 1] = self.gamma * g - F
            X, solved = _solve(J[~floor], rhs[~floor])
            live, X = live[~floor][solved], X[solved]
            U[live] += X[:, :, 0]
            K[live] = X[:, :, 1]
            small = (np.abs(X[:, :, 0]).max(axis=1)
                     <= tol * (1.0 + np.abs(U[live]).max(axis=1)))
            ok[live[small]] = True
            live = live[~small]
        err = np.abs(U - U0).max(axis=1) / (1.0 + np.abs(U).max(axis=1))
        return U, ok, err, K

    def step(self, U: np.ndarray, t: np.ndarray, h: np.ndarray,
             tol: float, iters: int, k1: np.ndarray):
        """Fourth-order predictor from t to t + h, then Newton at t + h;
        returns what `newton` returns.  `k1` is du/dt at U, NaN in the
        rows where it is not known; those rows compute it here."""
        hc = h[:, None]
        ok = np.ones(len(U), dtype=bool)
        k1 = k1.copy()
        miss = np.isnan(k1).any(axis=1)
        if miss.any():
            k1[miss], ok[miss] = self.tangent(U[miss], t[miss])
        k2, ok2 = self.tangent(U + 0.5 * hc * k1, t + 0.5 * h)
        k3, ok3 = self.tangent(U + 0.5 * hc * k2, t + 0.5 * h)
        k4, ok4 = self.tangent(U + hc * k3, t + h)
        up = U + (hc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ok &= ok2 & ok3 & ok4
        err = np.full(len(U), np.inf)
        K = np.full_like(U, np.nan)
        up[ok], converged, err[ok], K[ok] = self.newton(
            up[ok], (t + h)[ok], tol, iters)
        ok[ok] = converged
        return up, ok, err, K


def _solve(J: np.ndarray, rhs: np.ndarray):
    """x with J[p] x[p] = rhs[p], for rhs (P, v) or (P, v, k), and which
    rows were solved; a singular J[p] fails only row p, which stays zero."""
    B = rhs[:, :, None] if rhs.ndim == 2 else rhs
    solved = np.ones(len(J), dtype=bool)
    try:
        return np.linalg.solve(J, B).reshape(rhs.shape), solved
    except np.linalg.LinAlgError:       # raised if any one J[p] is singular
        x = np.zeros_like(B)
        for p in range(len(J)):
            try:
                x[p] = np.linalg.solve(J[p], B[p])
            except np.linalg.LinAlgError:
                solved[p] = False
        return x.reshape(rhs.shape), solved


def _line_phase(hom: _Homotopy, U0: np.ndarray, tol: float,
                steps: np.ndarray):
    """Track the rows of U0 from t = 0 to 1 - ENDGAME_RADIUS as one stack,
    each at its own t and step, with the step rule of the module docstring
    at tolerance `tol`; a rejected step halves h.

    Every row at the edge then gets one stacked Newton at t = 1.  A
    small, well-conditioned correction there is a regular endpoint.  A
    clustered endpoint reached by plain Newton is only sqrt(res)
    accurate, and a large correction means the iterate left the path
    (e.g. a path leaving the chart pulled onto a finite root): those
    rows go to the endgame.  Returns (U, E, res, steps), each indexed by
    row: where the row stopped (for an endgame row, at the edge); its
    t = 1 endpoint if regular, NaN otherwise; the residual of a finished
    row, regular or lost, and NaN for a row left for the endgame; and
    its step count, counted on from `steps`.
    """
    P = len(U0)
    t_edge = 1.0 - ENDGAME_RADIUS
    U = U0.copy()
    K = np.full_like(U, np.nan)                 # du/dt at U where known
    T = np.zeros(P)
    H = np.full(P, INITIAL_STEP)
    steps = steps.copy()
    grow = np.ones(P, dtype=bool)               # False right after a rejection
    underflow = np.zeros(P, dtype=bool)
    live = np.arange(P)
    while live.size:
        steps[live] += 1
        t = T[live]
        h = np.where(t_edge - t <= 1.01 * H[live], t_edge - t, H[live])
        Un, ok, err, Kn = hom.step(U[live], t, h, CORRECTOR_TOL,
                                   MAX_CORRECTOR_ITERS, K[live])
        acc, rej = live[ok], live[~ok]
        U[acc], K[acc] = Un[ok], Kn[ok]
        T[acc] = np.where(h[ok] == t_edge - t[ok], t_edge, t[ok] + h[ok])
        gain = np.clip(0.9 * (tol / np.maximum(err[ok], 1e-300)) ** 0.2,
                       0.5, 4.0)
        H[acc] = h[ok] * np.where(grow[acc], gain, np.minimum(gain, 1.0))
        H[rej] = 0.5 * h[~ok]
        grow[acc], grow[rej] = True, False
        underflow[rej] = H[rej] < MIN_STEP
        live = live[(T[live] < t_edge) & ~underflow[live]]
        underflow[live] = steps[live] >= MAX_STEPS
        live = live[~underflow[live]]

    E, res = np.full_like(U, np.nan), np.full(P, np.nan)
    res[underflow] = hom.target_residual(U[underflow])
    edge = np.flatnonzero(~underflow)
    ones = np.ones(len(edge))
    UF = hom.newton(U[edge], ones, REFINE_TARGET, 12)[0]
    R, J, _, _ = hom._assemble(UF, ones)
    fit = np.abs(R).max(axis=1)                 # F and the patch at t = 1
    jump = np.abs(UF - U[edge]).max(axis=1)
    near = ((fit <= ACCEPT_RESIDUAL) & np.isfinite(J).all(axis=(1, 2))
            & (jump <= 1e-2 * (1.0 + np.abs(U[edge]).max(axis=1))))
    cond = np.full(len(edge), np.inf)
    cond[near] = np.linalg.cond(J[near])
    regular = cond <= 1e6
    E[edge[regular]], res[edge[regular]] = UF[regular], fit[regular]
    return U, E, res, steps


def _near(A: np.ndarray, B: np.ndarray, rel: float) -> np.ndarray:
    """The pairs (i, j) with |A[i] - B[j]| <= rel (1 + |B[j]|) in the max
    norm, as a (2, pairs) index array.  Such a pair lies within
    2 v rel (1 + |A[i]|) in a real projection z = Re(w.u), |w_k| = 1, so
    only rows close in z are compared, one sorted offset at a time, in
    O(P v) memory."""
    w = np.exp(1j * np.arange(B.shape[1]))
    zb = (B @ w).real
    order = np.argsort(zb)
    za, zb = (A @ w).real, zb[order]
    reach = 2.0 * B.shape[1] * rel * (1.0 + np.abs(A).max(axis=1))
    lo = np.searchsorted(zb, za - reach)
    hi = np.searchsorted(zb, za + reach, side="right")
    tol = rel * (1.0 + np.abs(B).max(axis=1))
    pairs, i = [np.zeros((2, 0), dtype=int)], np.arange(len(A))
    for k in itertools.count():
        i = i[lo[i] + k < hi[i]]
        if not i.size:
            return np.concatenate(pairs, axis=1)
        j = order[lo[i] + k]
        hit = np.abs(A[i] - B[j]).max(axis=1) <= tol[j]
        pairs.append(np.stack([i[hit], j[hit]]))


def _draw_complex(rng: np.random.Generator, size: int) -> np.ndarray:
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z / np.sqrt(2.0)


def _materialize(system: PolySystem, cfg: TrackerConfig) -> _Homotopy:
    if system.lam is not None:
        raise ValueError("only the homogenized eigen-system is tracked")
    rng = np.random.default_rng(cfg.seed)
    gamma = complex(np.exp(2j * np.pi * rng.random()))
    patch = _draw_complex(rng, system.nvars)
    while abs(patch[-1]) < 0.2:
        patch = _draw_complex(rng, system.nvars)
    b = _draw_complex(rng, system.neq)
    while np.min(np.abs(b)) < 0.1:
        b = _draw_complex(rng, system.neq)
    return _Homotopy(system, gamma, b, patch)


def track_all(system: PolySystem, cfg: TrackerConfig) -> tuple[PathOutcome, ...]:
    """Track every total-degree path of the system; one outcome per path,
    in start-point order.

    `_line_phase` takes every path to the endgame edge as one stack.  A
    regular root is reached by one path only, so two regular endpoints
    on one point mean a path jumped: both are tracked again at a
    1000-fold tighter step tolerance.  The paths left for the endgame
    finish in `cauchy_endgame`, as one stack.  Each path's endpoint (NaN
    if none), residual, steps and winding stay in arrays until the return
    builds the outcomes.  A stack past MAX_STACK_ENTRIES raises
    ValueError before any path is listed."""
    d, n = system.degrees[0], system.neq
    if d ** n * n ** d > MAX_STACK_ENTRIES:
        raise ValueError(f"path stack {d}^{n} x {n}^{d} > {MAX_STACK_ENTRIES}")
    hom = _materialize(system, cfg)
    U0 = hom.start_points()
    U, E, res, steps = _line_phase(hom, U0, STEP_TOL,
                                   np.zeros(len(U0), dtype=int))
    regular = np.flatnonzero(np.isfinite(E).all(axis=1))
    pairs = _near(E[regular], E[regular], 1e-8)     # two paths, one root
    twice = pairs[:, pairs[0] != pairs[1]].ravel()
    again = regular[np.bincount(twice, minlength=len(regular)) > 0]
    U[again], E[again], res[again], steps[again] = _line_phase(
        hom, U0[again], 1e-3 * STEP_TOL, steps[again])
    winding = np.zeros(len(U0), dtype=int)
    rest = np.flatnonzero(np.isnan(res))
    if rest.size:
        from .endgame import cauchy_endgame     # it imports this module
        E[rest], res[rest], steps[rest], winding[rest] = cauchy_endgame(
            hom, U[rest], steps[rest])
    E.setflags(write=False)
    found = np.isfinite(E).all(axis=1)
    return tuple(PathOutcome(CONVERGED if f else STEP_UNDERFLOW,
                             e if f else None, float(r), int(k), int(w))
                 for f, e, r, k, w in zip(found, E, res, steps, winding))


def _eigen_rows(system: PolySystem, x: np.ndarray, lam):
    """A x^{m-1} - lam x and its (x, lam) Jacobian from the lam = 0 system,
    at one point or at a stack x (P, n), lam (P,)."""
    F, J = system.value_and_jacobian(x)
    lam = np.asarray(lam)[..., None]
    return F - lam * x, np.concatenate(
        [J - lam[..., None] * np.eye(x.shape[-1]), -x[..., None]], axis=-1)


def gauss_newton(system: PolySystem, X: np.ndarray, L: np.ndarray,
                 rows, tol: float) -> np.ndarray:
    """Which rows of a stack of starts X (P, n), L (P,) Gauss-Newton
    brings [A x^{m-1} - lam x; extra] below `tol` within 40 least-squares
    steps, as a (P,) mask; `system` is the lam = 0 shifted system.

    `rows(idx, X, L)` gives the extra equations (P', e) and their
    Jacobian rows (P', e, n+1) at the live rows `idx` of the stack.
    Every row advances in lockstep: one stacked evaluation and one
    stacked pseudo-inverse per iteration, with lstsq's default cutoff
    eps * max(rows, cols).  A row leaves as a hit on a residual at or
    below `tol`, and as a miss on a non-finite residual or step, a step
    above 1e3, or a step below 1e-13 (1 + |x|): there Gauss-Newton has
    stalled at a least-squares point that is no root.
    """
    X = np.array(X, dtype=np.complex128)
    L = np.array(L, dtype=np.complex128)
    n = X.shape[1]
    hit = np.zeros(len(X), dtype=bool)
    live = np.arange(len(X))
    for _ in range(40):
        if not live.size:
            break
        F, J = _eigen_rows(system, X[live], L[live])
        extra, J_extra = rows(live, X[live], L[live])
        g = np.concatenate([F, extra], axis=1)
        M = np.concatenate([J, J_extra], axis=1)
        res = np.abs(g).max(axis=1)
        hit[live[res <= tol]] = True
        go = (res > tol) & np.isfinite(M).all(axis=(1, 2))   # pinv needs it
        live, g, M = live[go], g[go], M[go]
        cutoff = np.finfo(float).eps * max(M.shape[1:])
        d = -(np.linalg.pinv(M, cutoff) @ g[:, :, None])[:, :, 0]
        size = np.abs(d).max(axis=1)
        floor = 1e-13 * (1.0 + np.abs(X[live]).max(axis=1))
        moving = (size <= 1e3) & (size >= floor)
        live, d = live[moving], d[moving]
        X[live] += d[:, :n]
        L[live] += d[:, n]
    return hit


def _on_family(system: PolySystem, X0: np.ndarray, L0: np.ndarray,
               r: np.ndarray) -> np.ndarray:
    """Which of the classes (X0[p], L0[p]), |X0[p]| = 1, have a family
    through them that meets the slice r.x = r.X0[p] + 0.1|r| in the chart
    conj(X0[p]).x = 1; an isolated root cannot.  One `gauss_newton` call
    slides all of them.  The offset stays large: a root of order k along
    a direction leaves a residual near offset^k, far above 1e-12 at
    5-fold classes."""
    level = X0 @ r + 0.1 * np.linalg.norm(r)
    charts = np.append(X0.conj(), np.zeros((len(X0), 1)), axis=1)
    J_extra = np.stack(
        [charts, np.broadcast_to(np.append(r, 0.0), charts.shape)], axis=1)

    def rows(idx, X, L):
        return np.stack([np.sum(X0[idx].conj() * X, axis=1) - 1.0,
                         X @ r - level[idx]], axis=1), J_extra[idx]

    return gauss_newton(system, X0, L0, rows, 1e-12)


def group_into_classes(outcomes, A: Tensor, cfg: TrackerConfig):
    """Cluster converged endpoints into eigenpair classes, and decide each.

    Returns (classes, GroupDiagnostics) for an order m >= 3 tensor.
    Multiplicity is cluster size divided by m-2.  A class's condition is
    that of the Jacobian of [A x^{m-1} - lam x; conj(x0).x - 1] in (x, lam)
    at its representative x0 scaled to |x0| = 1; in lam-tilde a simple
    root at lam = 0 would read as singular.  Above POSITIVE_DIM_COND the
    class is singular, and `_on_family` decides whether a family passes
    through it.  A cluster is degenerate when its size does not divide by
    m-2, or when it lies on no family and its multiplicity disagrees with
    its Jacobian: multiplicity 1 exactly when nonsingular.
    """
    m, n = A.m, A.n
    k = m - 2
    failed = 0
    trivial = 0
    pairs = []              # canonical, with the endpoint residual
    for out in outcomes:
        if not out.converged:
            failed += 1
            continue
        u = out.endpoint
        x = u[:n]
        if np.linalg.norm(x) <= TRIVIAL_X * np.linalg.norm(u):
            trivial += 1
            continue
        pairs.append(canonicalize(
            EigenPair(u[n] ** k, x, residual=out.residual), m))

    Y = np.array([(p.lam, *p.x) for p in pairs],     # a row (lam, *x) each
                 dtype=np.complex128).reshape(-1, n + 1)
    order = key_order(Y)
    pairs, Y = [pairs[i] for i in order], Y[order]
    # each pair, in key order, joins the first cluster whose first pair
    # (lam1, x1) has |lam1 - lam| <= tol (1 + |lam1|) and
    # |x1 - x| <= tol max(1, |x1|), tested against all first pairs at once
    tol = cfg.cluster_radius * np.stack(
        [1.0 + np.abs(Y[:, 0]), np.maximum(1.0, np.abs(Y[:, 1:]).max(axis=1))],
        axis=1)
    heads = np.empty(len(pairs), dtype=int)     # first pair of each cluster
    clusters: list[list] = []
    for i, pair in enumerate(pairs):
        h = heads[: len(clusters)]
        d = np.abs(Y[h] - Y[i])
        near = np.flatnonzero((d[:, 0] <= tol[h, 0])
                              & (d[:, 1:].max(axis=1) <= tol[h, 1]))
        if near.size:
            clusters[near[0]].append(pair)
        else:
            heads[len(clusters)] = i
            clusters.append([pair])

    shifted = build_shifted_system(A, 0.0)
    r = _draw_complex(np.random.default_rng(cfg.seed), n)
    reps = [min(cl, key=lambda p: p.residual) for cl in clusters]
    norms = np.array([np.linalg.norm(p.x) for p in reps])
    X0 = np.array([p.x for p in reps]).reshape(-1, n) / norms[:, None]
    L0 = np.array([complex(p.lam) for p in reps]) / norms ** k
    charts = np.append(X0.conj(), np.zeros((len(reps), 1)), axis=1)[:, None]
    conds = np.linalg.cond(np.concatenate(
        [_eigen_rows(shifted, X0, L0)[1], charts], axis=1))
    singular = conds > POSITIVE_DIM_COND
    family = singular.copy()
    if singular.any():
        family[singular] = _on_family(shifted, X0[singular], L0[singular], r)
    degenerate, classes = 0, []
    for cl, rep, cond, sing, fam in zip(clusters, reps, conds, singular, family):
        size = len(cl)
        mult = max(1, round(size / k))
        degenerate += bool(size % k or (not fam and (mult == 1) == sing))
        classes.append(EigenClass(representative=rep, multiplicity=mult,
                                  normalized_lambdas=normalized_eigenvalues(rep, m),
                                  cluster_size=size, condition=float(cond)))
    diag = GroupDiagnostics(failed_paths=failed, trivial_paths=trivial,
                            degenerate_clusters=degenerate,
                            positive_dimensional=bool(family.any()))
    return key_sorted(classes), diag
