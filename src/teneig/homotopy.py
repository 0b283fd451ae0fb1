"""Total-degree homotopy tracking and endpoint clustering.

Paths follow the gamma-trick family H(u, t) = gamma (1-t) G(u) + t F(u)
with start system G_j = u_j^d - b_j.  The target is the homogenized
eigen-system, one more variable than equations, closed with a random
affine patch <c, u> = 1 that is held exact throughout.  The predictor is
a fourth-order explicit step on the Davidenko ODE, the corrector plain
Newton.  Endpoints that land on singular roots (clusters of coalescing
paths, e.g. the multiplicity m-2 bundles at lam = 0) are finished with a
Cauchy-integral endgame: the path is continued around small circles
|1 - t| = r until it closes up, and the mean over the cycle gives the
limit point; the radius is halved until consecutive circles agree.

All paths of a solve advance in lockstep (as in HomotopyContinuation.jl,
Breiding and Timme, ICMS 2018).  Each path's control flow is a generator
that yields the numeric work it needs next and is sent the answer;
`track_all` answers the pending requests of all paths with one call per
kind on a stack of points (P, n+1).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .polysys import PolySystem, build_eigen_system
from .tensor import (
    ISOTROPY_TOL,
    EigenClass,
    EigenPair,
    Tensor,
    canonicalize,
    normalized_eigenvalues,
)

CONVERGED = "converged"
DIVERGED = "diverged"
STEP_UNDERFLOW = "step_underflow"

ACCEPT_RESIDUAL = 1e-9          # max-norm residual for a converged endpoint
REFINE_TARGET = 1e-12           # endpoint Newton refinement goal
TRIVIAL_X = 1e-8                # |x| below this fraction of |u| is the zero solution
POSITIVE_DIM_COND = 1e10        # Jacobian condition flagging a suspicious cluster
ENDGAME_RADIUS = 1e-6           # outer circle radius around t = 1
ENDGAME_SAMPLES = 16            # nodes per loop on the endgame circle
# A cycle of winding w is analytic in s = (1 - t)^(1/w), and the w loops of
# the t-circle make one s-circle of radius r^(1/w) with 16*w equispaced
# nodes.  The trapezoid mean there is off from the endpoint only by the
# s-Taylor terms of order 16*w and up, which scale like r^16: at
# r = 1e-6 that is far below ACCEPT_RESIDUAL.  On the Motzkin sextic, 16
# nodes give the same windings and classes as 32, with endpoints within
# 2.2e-13.
MAX_WINDING = 24                # give up if the cycle has not closed by then
MAX_RADIUS_HALVINGS = 6         # endgame radius adaptation budget
MAX_STEPS = 6000                # hard per-path step budget
INITIAL_STEP = 0.05             # first (and largest) step in t
MIN_STEP = 1e-7                 # a path whose step falls below this fails
CORRECTOR_TOL = 1e-11           # Newton update size that ends a correction
MAX_CORRECTOR_ITERS = 3         # Newton iterations per predictor step
DIVERGENCE_BOUND = 1e8          # |u| beyond this marks a diverging path


@dataclass(frozen=True)
class TrackerConfig:
    """The tracker's seed, from which gamma, the patch and the start
    system are drawn, and the endpoint clustering radius."""

    seed: int = 20100306
    cluster_radius: float = 1e-6

    def __post_init__(self) -> None:
        if self.cluster_radius <= 0:
            raise ValueError("cluster_radius must be positive")

    def fresh(self) -> "TrackerConfig":
        """A config with re-drawn randomness (fresh patch re-runs)."""
        return dataclasses.replace(self, seed=self.seed + 7919)


@dataclass(frozen=True)
class PathOutcome:
    """One tracked path: endpoint in the patch chart, or a failure kind."""

    status: str
    endpoint: np.ndarray | None
    residual: float
    condition: float
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

    def target_residual(self, u: np.ndarray) -> float:
        r = float(np.max(np.abs(self.sys.value_and_jacobian(u)[0])))
        return max(r, abs(self.patch @ u - 1.0))

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
        J.reshape(len(U), -1)[:, : self.neq * (self.v + 1) : self.v + 1] += \
            s * self.d * un_d1
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
        """Newton on each row of U at its own t: (rows, converged mask).

        A row is done on a small update, or on a residual at the machine
        floor: near rank-deficient roots the update stagnates around
        cond*eps while the residual is already exact.  Done rows leave
        the stack; a singular Jacobian fails only its own row.
        """
        U = U.copy()
        ok = np.zeros(len(U), dtype=bool)
        live = np.arange(len(U))
        for it in range(iters + 1):
            if not live.size:
                break
            H, J, _, _ = self._assemble(U[live], t[live])
            floor = np.abs(H).max(axis=1) <= 1e-13
            ok[live[floor]] = True
            if it == iters:
                break
            du, solved = _solve(J[~floor], -H[~floor])
            live, du = live[~floor][solved], du[solved]
            U[live] += du
            small = (np.abs(du).max(axis=1)
                     <= tol * (1.0 + np.abs(U[live]).max(axis=1)))
            ok[live[small]] = True
            live = live[~small]
        return U, ok

    def step(self, U: np.ndarray, t: np.ndarray, h: np.ndarray,
             tol: float, iters: int):
        """Fourth-order predictor from t to t + h, then Newton at t + h."""
        hc = h[:, None]
        k1, ok1 = self.tangent(U, t)
        k2, ok2 = self.tangent(U + 0.5 * hc * k1, t + 0.5 * h)
        k3, ok3 = self.tangent(U + 0.5 * hc * k2, t + 0.5 * h)
        k4, ok4 = self.tangent(U + hc * k3, t + h)
        up = U + (hc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ok = ok1 & ok2 & ok3 & ok4
        corrected, converged = self.newton(up[ok], (t + h)[ok], tol, iters)
        up[ok] = corrected
        ok[ok] = converged
        return up, ok

    def condition_at(self, u: np.ndarray) -> float:
        _, J, _, _ = self._assemble(u[None], np.ones(1, dtype=np.complex128))
        try:
            return float(np.linalg.cond(J[0]))
        except np.linalg.LinAlgError:
            return float("inf")


def _solve(J: np.ndarray, rhs: np.ndarray):
    """x with J[p] x[p] = rhs[p], and which rows were solved; a singular
    J[p] fails only row p, which stays zero."""
    solved = np.ones(len(J), dtype=bool)
    try:
        return np.linalg.solve(J, rhs[:, :, None])[:, :, 0], solved
    except np.linalg.LinAlgError:       # raised if any one J[p] is singular
        x = np.zeros_like(rhs)
        for p in range(len(J)):
            try:
                x[p] = np.linalg.solve(J[p], rhs[p])
            except np.linalg.LinAlgError:
                solved[p] = False
        return x, solved


# The requests a path generator yields, each answered with (u, ok):
#   ("step", u, t, h, tol, iters): `_Homotopy.step` from t to t + h
#   ("newton", u, t, tol, iters):  `_Homotopy.newton` at t


def _arc_step(u: np.ndarray, t0: complex, t1: complex, depth: int = 0):
    """Continue u from t0 to t1 along the chord; bisect on failure."""
    un, ok = yield ("step", u, t0, t1 - t0, CORRECTOR_TOL,
                    MAX_CORRECTOR_ITERS + 2)
    if ok:
        return un, True
    if depth >= 5:
        return u, False
    tm = 0.5 * (t0 + t1)
    um, ok = yield from _arc_step(u, t0, tm, depth + 1)
    if not ok:
        return u, False
    return (yield from _arc_step(um, tm, t1, depth + 1))


def _cauchy_circle(u_start: np.ndarray, radius: float):
    """Loop t = 1 - radius*exp(i theta) until the path closes.

    Returns (mean over the closed cycle, winding, closure flag, node count,
    final point).  The mean over the uniform nodes of the full cycle is
    off from the endpoint at t = 1 by O(radius^16); see ENDGAME_SAMPLES.
    """
    nodes_per_loop = ENDGAME_SAMPLES
    dth = 2.0 * np.pi / nodes_per_loop
    u = u_start.copy()
    total = np.zeros_like(u)
    count = 0
    for loop in range(MAX_WINDING):
        for k in range(nodes_per_loop):
            total += u
            th0 = (loop * nodes_per_loop + k) * dth
            th1 = th0 + dth
            t0 = 1.0 - radius * np.exp(1j * th0)
            t1 = 1.0 - radius * np.exp(1j * th1)
            u, ok = yield from _arc_step(u, t0, t1)
            count += 1
            if not ok or np.max(np.abs(u)) > DIVERGENCE_BOUND:
                return None, 0, False, count, u
        err = np.max(np.abs(u - u_start)) / (1.0 + np.max(np.abs(u_start)))
        if err <= 1e-4:
            return total / count, loop + 1, True, count, u
    return None, 0, False, count, u


def _walk_radius(u: np.ndarray, r0: float, r1: float):
    """Move along the real t axis from 1-r0 to 1-r1 by short Newton hops."""
    steps = 8
    for k in range(1, steps + 1):
        r = r0 * (r1 / r0) ** (k / steps)
        u, ok = yield ("newton", u, 1.0 - r, CORRECTOR_TOL,
                       MAX_CORRECTOR_ITERS + 3)
        if not ok:
            return u, False
    return u, True


def _finish_endgame(hom: _Homotopy, u: np.ndarray, steps: int):
    """Cauchy-integral endgame with an adaptive radius.

    The circle mean equals the endpoint only while the disk |1 - t| <= r
    contains no branch point of the path field besides t = 1 itself;
    stray branch points inside the disk corrupt both the winding and the
    mean (the loop then closes around a sub-bundle of sheets).  Halving
    the radius until two consecutive circles agree on winding and mean
    filters them out.
    """
    escaping = float(np.max(np.abs(u))) > 1e3
    r = ENDGAME_RADIUS
    prev_est = None
    prev_w = 0
    best = None
    for _ in range(MAX_RADIUS_HALVINGS):
        est, w, ok, n, u_back = yield from _cauchy_circle(u, r)
        steps += n
        if ok:
            res = hom.target_residual(est)
            if res <= ACCEPT_RESIDUAL:
                agree = (prev_est is not None and prev_w == w
                         and float(np.max(np.abs(est - prev_est)))
                         <= 1e-8 * (1.0 + float(np.max(np.abs(est)))))
                best = (est, w, res)
                if agree:
                    cond = hom.condition_at(est)
                    est.setflags(write=False)
                    return PathOutcome(CONVERGED, est, res, cond, steps, w)
            prev_est, prev_w = est, w
            u = u_back
        else:
            prev_est, prev_w = None, 0
            if float(np.max(np.abs(u_back))) > DIVERGENCE_BOUND:
                break
        u, okw = yield from _walk_radius(u, r, r / 2.0)
        if not okw:
            break
        r /= 2.0
    if best is not None:
        # closed and on-target at one radius, never confirmed at the next;
        # accept the estimate rather than discard a plausible endpoint
        est, w, res = best
        cond = hom.condition_at(est)
        est.setflags(write=False)
        return PathOutcome(CONVERGED, est, res, cond, steps, w)
    res = hom.target_residual(u)
    status = DIVERGED if escaping else STEP_UNDERFLOW
    return PathOutcome(status, None, res, float("inf"), steps, 0)


def _track_one(hom: _Homotopy, u0: np.ndarray):
    u = u0.astype(np.complex128, copy=True)
    t = 0.0
    h = INITIAL_STEP
    streak = 0
    steps = 0
    t_edge = 1.0 - ENDGAME_RADIUS
    while t < t_edge:
        steps += 1
        if steps > MAX_STEPS:
            return PathOutcome(STEP_UNDERFLOW, None, hom.target_residual(u),
                               float("inf"), steps, 0)
        hh = min(h, t_edge - t)
        un, ok = yield ("step", u, t, hh, CORRECTOR_TOL, MAX_CORRECTOR_ITERS)
        if ok:
            u = un
            t += hh
            if np.max(np.abs(u)) > DIVERGENCE_BOUND:
                return PathOutcome(DIVERGED, None, float("inf"),
                                   float("inf"), steps, 0)
            streak += 1
            if streak >= 4:
                h = min(2.0 * h, INITIAL_STEP)
                streak = 0
        else:
            streak = 0
            h *= 0.5
            if h < MIN_STEP:
                return PathOutcome(STEP_UNDERFLOW, None, hom.target_residual(u),
                                   float("inf"), steps, 0)
    # regular endpoints jump straight to t = 1; the jump must be a small
    # correction or the Newton iterate left the tracked path (e.g. a path
    # escaping to infinity getting pulled onto a finite root)
    uf, _ = yield ("newton", u, 1.0, REFINE_TARGET, 12)
    res = hom.target_residual(uf)
    unorm = float(np.max(np.abs(u)))
    jump = float(np.max(np.abs(uf - u)))
    if res <= ACCEPT_RESIDUAL and jump <= 1e-2 * (1.0 + unorm):
        cond = hom.condition_at(uf)
        # a clustered endpoint reached by plain Newton is only sqrt(res)
        # accurate; route anything ill-conditioned through the endgame,
        # whose circle mean cancels the fractional-power error exactly
        if cond <= 1e6:
            uf.setflags(write=False)
            return PathOutcome(CONVERGED, uf, res, cond, steps, 0)
    return (yield from _finish_endgame(hom, u, steps))


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
    in start-point order.  All paths advance together: each round
    gathers the pending request of every live path and answers each
    kind of request with one stacked call; a path retires when its
    generator returns."""
    hom = _materialize(system, cfg)
    paths = [_track_one(hom, u0) for u0 in hom.start_points()]
    outcomes: list = [None] * len(paths)
    answers = dict.fromkeys(range(len(paths)))
    while answers:
        pending = {}
        for i, answer in answers.items():
            try:
                pending[i] = paths[i].send(answer)
            except StopIteration as done:
                outcomes[i] = done.value
        groups: dict = {}
        for i, (kind, *args) in pending.items():
            groups.setdefault((kind, *args[-2:]), []).append(i)
        answers = {}
        for (kind, tol, iters), idx in groups.items():
            columns = (np.array(c, dtype=np.complex128)
                       for c in zip(*(pending[i][1:-2] for i in idx)))
            U, ok = getattr(hom, kind)(*columns, tol, iters)
            answers.update(zip(idx, zip(U, ok)))
    return tuple(outcomes)


def _cluster_key(lam: complex, x: np.ndarray):
    return tuple(round(v, 7) for z in (lam, *x) for v in (z.real, z.imag))


def _same_class(lam1, x1, lam2, x2, tol: float) -> bool:
    if abs(lam1 - lam2) > tol * (1.0 + abs(lam1)):
        return False
    scale = max(1.0, float(np.max(np.abs(x1))))
    return float(np.max(np.abs(x1 - x2))) <= tol * scale


def group_into_classes(outcomes, A: Tensor, cfg: TrackerConfig,
                       _recheck: bool = True):
    """Cluster converged endpoints into eigenpair classes.

    Returns (classes, GroupDiagnostics) for an order m >= 3 tensor.
    Multiplicity is cluster size divided by m-2 (non-divisible sizes are
    surfaced via the degenerate-cluster counter).  Suspiciously
    ill-conditioned clusters are re-solved with a fresh patch to detect
    positive-dimensional components.
    """
    m, n = A.m, A.n
    k = m - 2
    failed = 0
    trivial = 0
    entries = []            # (canonical pair, raw lam-tilde, residual, cond)
    for out in outcomes:
        if not out.converged:
            failed += 1
            continue
        u = out.endpoint
        x = u[:n]
        if np.linalg.norm(x) <= TRIVIAL_X * np.linalg.norm(u):
            trivial += 1
            continue
        pair = canonicalize(EigenPair(u[n] ** k, x, residual=out.residual), m)
        entries.append((pair, u[n], out.residual, out.condition))

    entries.sort(key=lambda e: _cluster_key(e[0].lam, e[0].x))
    clusters: list[list] = []
    for entry in entries:
        pair = entry[0]
        for cl in clusters:
            rep = cl[0][0]
            if _same_class(rep.lam, rep.x, pair.lam, pair.x, cfg.cluster_radius):
                cl.append(entry)
                break
        else:
            clusters.append([entry])

    degenerate = 0
    classes = []
    for cl in clusters:
        size = len(cl)
        degenerate += bool(size % k)
        mult = max(1, round(size / k))
        rep = min(cl, key=lambda e: e[2])[0]
        w = rep.x / np.linalg.norm(rep.x)
        iso = bool(abs(w @ w) <= ISOTROPY_TOL)
        cond = max(e[3] for e in cl)
        classes.append(EigenClass(representative=rep, multiplicity=mult,
                                  isotropic=iso,
                                  normalized_lambdas=normalized_eigenvalues(rep, m),
                                  cluster_size=size, condition=cond))

    positive_dim = False
    suspicious = [c for c in classes if c.condition > POSITIVE_DIM_COND]
    if suspicious and _recheck:
        positive_dim = _positive_dim_recheck(A, suspicious, cfg)

    classes.sort(key=lambda c: _cluster_key(c.representative.lam,
                                            c.representative.x))
    diag = GroupDiagnostics(failed_paths=failed, trivial_paths=trivial,
                            degenerate_clusters=degenerate,
                            positive_dimensional=positive_dim)
    return tuple(classes), diag


def _positive_dim_recheck(A: Tensor, suspicious, cfg: TrackerConfig) -> bool:
    """Re-run with a fresh patch; a suspicious cluster whose representative
    x cannot be reproduced at the same lam marks a positive-dimensional
    eigenvariety component."""
    cfg2 = cfg.fresh()
    outcomes2 = track_all(build_eigen_system(A), cfg2)
    classes2, _ = group_into_classes(outcomes2, A, cfg2, _recheck=False)
    return not all(
        any(_same_class(c.representative.lam, c.representative.x,
                        c2.representative.lam, c2.representative.x, 1e-6)
            for c2 in classes2)
        for c in suspicious)
