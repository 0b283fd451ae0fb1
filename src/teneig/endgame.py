"""The Cauchy-integral endgame (Morgan, Sommese and Wampler, Numer. Math.
1991) for the paths that `track_all` leaves at t = 1 - ENDGAME_RADIUS.

Each path is continued around small circles |1 - t| = r until it closes
up, and the mean over the cycle gives the limit point; the radius is
halved until consecutive circles agree.  The w sheets of a cycle are w
paths of the same solve, so each path loops each circle once, all as one
stack, and the w loops of a cycle's paths make up the whole cycle.
"""

from __future__ import annotations

import numpy as np

from .homotopy import (
    ACCEPT_RESIDUAL,
    CORRECTOR_TOL,
    ENDGAME_RADIUS,
    MAX_CORRECTOR_ITERS,
    _Homotopy,
    _near,
)

ENDGAME_SAMPLES = 16            # nodes per loop on the endgame circle
# A cycle of winding w is analytic in s = (1 - t)^(1/w), and its w loops of
# the t-circle (one by each of its paths, or all by a path left alone) make
# one s-circle of radius r^(1/w) with 16*w equispaced nodes.  The trapezoid
# mean there is off from the endpoint only by the s-Taylor terms of order
# 16*w and up, which scale like r^16: at r = 1e-6 that is far below
# ACCEPT_RESIDUAL.  On the Motzkin sextic, 16 nodes give the same windings
# and classes as 32, with endpoints within 2.2e-13.
MAX_WINDING = 24                # give up if the cycle has not closed by then
MAX_RADIUS_HALVINGS = 6         # endgame radius adaptation budget


def _arcs(hom: _Homotopy, U: np.ndarray, K: np.ndarray, t0: np.ndarray,
          t1: np.ndarray, depth: int = 0):
    """Continue each row of U from t0 to t1 along the chord, as one stack,
    from du/dt = K (NaN where unknown); failing rows are bisected as a
    sub-stack, at most 5 deep.  Returns the furthest point each row
    reached, du/dt there, and which rows reached t1."""
    Un, ok, _, Kn = hom.step(U, t0, t1 - t0, CORRECTOR_TOL,
                             MAX_CORRECTOR_ITERS + 2, K)
    U, K = np.where(ok[:, None], Un, U), np.where(ok[:, None], Kn, K)
    bad = np.flatnonzero(~ok)
    if bad.size and depth < 5:
        tm = 0.5 * (t0[bad] + t1[bad])
        U[bad], K[bad], half = _arcs(hom, U[bad], K[bad], t0[bad], tm, depth + 1)
        bad, tm = bad[half], tm[half]
        U[bad], K[bad], ok[bad] = _arcs(hom, U[bad], K[bad], tm, t1[bad],
                                        depth + 1)
    return U, K, ok


def _loop(hom: _Homotopy, U: np.ndarray, K: np.ndarray, r: float,
          steps: np.ndarray, rows: np.ndarray):
    """One loop of t = 1 - r exp(i theta) in ENDGAME_SAMPLES arcs for the
    rows of U as one stack, each arc counted in steps[rows]; returns where
    each row stopped, du/dt there, the sum of the nodes it visited, and
    which rows went round."""
    t = 1.0 - r * np.exp(2j * np.pi / ENDGAME_SAMPLES
                         * np.arange(ENDGAME_SAMPLES + 1))
    U, K, nodes = U.copy(), K.copy(), np.zeros_like(U)
    ok, live = np.ones(len(U), dtype=bool), np.arange(len(U))
    for k in range(ENDGAME_SAMPLES):
        nodes[live] += U[live]
        steps[rows[live]] += 1
        one = np.ones(len(live))
        U[live], K[live], ok[live] = _arcs(hom, U[live], K[live],
                                           t[k] * one, t[k + 1] * one)
        live = live[ok[live]]
    return U, K, nodes, ok


def _circle(hom: _Homotopy, S: np.ndarray, K: np.ndarray, r: float,
            steps: np.ndarray, rows: np.ndarray):
    """Loop the rows of S, at t = 1 - r with du/dt = K, round the circle
    |1 - t| = r until each closes, as one stack; steps[rows] counts their
    arcs.

    After the first loop a row that lands on its own start has winding 1.
    A landing point that is the start of exactly one other row, and the
    only landing there, continues that row's sheet: a closed chain of w
    such rows is a cycle of winding w, whose w loops visit the 16 w nodes
    of its s-circle, so its rows share one node sum.  Other rows loop on
    alone until they return to their own start, at most MAX_WINDING loops.
    Returns each row's winding (0 where it did not close), the node sum of
    its cycle, and its last point: for a closed row, the landing on its
    own sheet.
    """
    n = len(S)
    back, nodes = S.copy(), np.zeros_like(S)
    w, go = np.zeros(n, dtype=int), np.arange(n)
    for loops in range(1, MAX_WINDING + 1):
        if not go.size:
            break
        back[go], K[go], more, ok = _loop(hom, back[go], K[go], r, steps, rows[go])
        nodes[go] += more
        go = go[ok]
        shut = (np.abs(back[go] - S[go]).max(axis=1)
                / (1.0 + np.abs(S[go]).max(axis=1)) <= 1e-4)
        w[go[shut]], go = loops, go[~shut]
        if loops > 1:
            continue
        i, j = go[_near(back[go], S[go], 1e-4)]
        once = ((np.bincount(i, minlength=n)[i] == 1)
                & (np.bincount(j, minlength=n)[j] == 1))
        succ = dict(zip(i[once], j[once]))
        for a in sorted(succ):
            cyc = [a]
            while succ.get(cyc[-1], -1) not in (-1, a):
                cyc.append(succ[cyc[-1]])
            if not w[a] and succ.get(cyc[-1]) == a and len(cyc) <= MAX_WINDING:
                w[cyc], nodes[cyc] = len(cyc), nodes[cyc].sum(axis=0)
                back[cyc[1:] + cyc[:1]] = back[cyc]
        go = go[w[go] == 0]
    return w, nodes, back


def cauchy_endgame(hom: _Homotopy, U: np.ndarray, steps: np.ndarray):
    """Cauchy-integral endgame with an adaptive radius for the rows of U
    at the endgame edge, as one stack.  Returns (E, res, steps, winding),
    each indexed by row: the endpoint, NaN where none was confirmed; its
    residual, or that of the row's last point; the step count, counted
    on from `steps`; and the winding, 0 where no endpoint was confirmed.

    The circle mean equals the endpoint only while the disk |1 - t| <= r
    contains no branch point of the path field besides t = 1 itself;
    stray branch points inside the disk corrupt both the winding and the
    mean (the loop then closes around a sub-bundle of sheets).  Halving
    the radius until two consecutive circles agree on winding and mean
    filters them out.  Between radii the rows move along the real t axis
    by Newton hops, each from its landing on its own sheet, or from its
    start if it did not close.  Any other row is lost.
    """
    r, U, steps = ENDGAME_RADIUS, U.copy(), steps.copy()
    E, res = np.full_like(U, np.nan), np.full(len(U), np.nan)
    winding = np.zeros(len(U), dtype=int)
    K, prev = np.full_like(U, np.nan), np.full_like(U, np.nan)
    prev_w, live = np.zeros(len(U), dtype=int), np.arange(len(U))
    for _ in range(MAX_RADIUS_HALVINGS):
        if not live.size:
            break
        w, nodes, back = _circle(hom, U[live], K[live], r, steps, live)
        est = nodes / (ENDGAME_SAMPLES * np.maximum(w, 1))[:, None]
        fit = np.full(len(live), np.inf)
        fit[w > 0] = hom.target_residual(est[w > 0])
        done = ((fit <= ACCEPT_RESIDUAL) & (prev_w[live] == w)
                & (np.abs(est - prev[live]).max(axis=1)
                   <= 1e-8 * (1.0 + np.abs(est).max(axis=1))))
        p = live[done]
        E[p], res[p], winding[p] = est[done], fit[done], w[done]
        prev[live], prev_w[live] = est, w
        U[live] = np.where((w > 0)[:, None], back, U[live])
        live = live[~done]
        for k in range(1, 9):           # Newton hops from 1 - r to 1 - r/2
            if not live.size:
                break
            U[live], ok, _, K[live] = hom.newton(
                U[live], np.full(len(live), 1.0 - r * 0.5 ** (k / 8)),
                CORRECTOR_TOL, MAX_CORRECTOR_ITERS + 3)
            live = live[ok]
        r /= 2.0
    # an estimate never confirmed at a second radius is not an endpoint
    rest = np.isnan(res)
    res[rest] = hom.target_residual(U[rest])
    return E, res, steps, winding
