"""Tests for system construction and the homotopy path tracker."""

import json

import numpy as np
import pytest

from teneig import homotopy, spectra
from teneig.homotopy import (
    ACCEPT_RESIDUAL,
    CONVERGED,
    CORRECTOR_TOL,
    STEP_TOL,
    STEP_UNDERFLOW,
    TrackerConfig,
    _Homotopy,
    _materialize,
    _solve,
    group_into_classes,
    track_all,
)
from teneig.cli import DEGENERATE, main
from teneig.polysys import PolySystem, build_eigen_system, build_shifted_system
from teneig.spectra import eigenclasses, value_multiplicities
from teneig.tensor import EigenPair, Tensor, apply_power, canonicalize, expected_count
from teneig.tensorio import parse_tensor_json

CFG = TrackerConfig()


def rand_tensor(m, n, rng):
    arr = rng.standard_normal((n,) * m) + 1j * rng.standard_normal((n,) * m)
    return Tensor(m, n, arr)


def diag_tensor(a, m):
    a = np.asarray(a, dtype=complex)
    n = a.size
    arr = np.zeros((n,) * m, dtype=complex)
    for i in range(n):
        arr[(i,) * m] = a[i]
    return Tensor(m, n, arr)


def assert_jacobian_matches_fd(system, u):
    """Jacobian columns agree with central differences; F with evaluate."""
    F, J = system.value_and_jacobian(u)
    assert J.shape == (system.neq, system.nvars)
    F0 = system.evaluate(u)
    assert np.max(np.abs(F - F0)) <= 1e-14 * (1 + np.max(np.abs(F0)))
    h = 1e-7
    for j in range(system.nvars):
        e = np.zeros(system.nvars)
        e[j] = h
        fd = (system.evaluate(u + e) - system.evaluate(u - e)) / (2 * h)
        assert np.max(np.abs(J[:, j] - fd)) < 1e-5 * (1 + np.max(np.abs(J[:, j])))


def motzkin_tensor():
    form = {"m": 6, "n": 3, "encoding": "form",
            "entries": [{"exponents": [4, 2, 0], "coeff": 1},
                        {"exponents": [2, 4, 0], "coeff": 1},
                        {"exponents": [2, 2, 2], "coeff": -3},
                        {"exponents": [0, 0, 6], "coeff": 1}]}
    return parse_tensor_json(json.dumps(form)).tensor


def test_eigen_system_shape_and_degrees():
    rng = np.random.default_rng(1)
    for m, n in [(3, 2), (4, 3), (5, 2)]:
        A = rand_tensor(m, n, rng)
        sysA = build_eigen_system(A)
        assert sysA.neq == n and sysA.nvars == n + 1
        assert sysA.degrees == (m - 1,) * n
        assert sysA.total_degree == (m - 1) ** n
        # every equation homogeneous of degree m-1 in (x, lam), and its
        # Jacobian of degree m-2 (Euler: J u = (m-1) F)
        u = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        c = 0.7 - 1.3j
        F, J = sysA.value_and_jacobian(u)
        Fc, Jc = sysA.value_and_jacobian(c * u)
        scale = 1 + np.max(np.abs(Fc))
        assert np.max(np.abs(Fc - c ** (m - 1) * F)) < 1e-12 * scale
        assert np.max(np.abs(Jc - c ** (m - 2) * J)) < 1e-12 * scale
        assert np.max(np.abs(J @ u - (m - 1) * F)) < 1e-12 * (1 + np.max(np.abs(F)))


def test_eigen_system_evaluation_matches_contraction():
    # (5,2) and (6,3) random tensors are far from symmetric in modes 2..m,
    # so their Jacobians test the symmetrization; Motzkin is sparse
    rng = np.random.default_rng(2)
    for A in [rand_tensor(3, 3, rng), rand_tensor(5, 2, rng),
              rand_tensor(6, 3, rng), motzkin_tensor()]:
        sysA = build_eigen_system(A)
        x = rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        u = np.concatenate([x, [lam]])
        want = apply_power(A, x) - lam ** (A.m - 2) * x
        assert np.max(np.abs(sysA.evaluate(u) - want)) < 1e-12 * (1 + np.max(np.abs(want)))

        assert_jacobian_matches_fd(sysA, u)


def test_shifted_system_is_square():
    rng = np.random.default_rng(3)
    A = rand_tensor(3, 2, rng)
    sysS = build_shifted_system(A, 0.7 + 0.2j)
    assert sysS.neq == sysS.nvars == 2
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    want = apply_power(A, x) - (0.7 + 0.2j) * x
    assert np.max(np.abs(sysS.evaluate(x) - want)) < 1e-12 * (1 + np.max(np.abs(want)))


def test_jacobian_square_and_empty_equations():
    rng = np.random.default_rng(5)
    for m, n in [(3, 2), (4, 3), (5, 2), (6, 3)]:
        A = rand_tensor(m, n, rng)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_jacobian_matches_fd(build_shifted_system(A, 0.3 - 1.1j), x)

    # zero tensor at lam = 0: every equation and every derivative vanishes
    zero = Tensor(3, 3, np.zeros((3, 3, 3), dtype=complex))
    sysZ = build_shifted_system(zero, 0.0)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    F, J = sysZ.value_and_jacobian(x)
    assert J.shape == (3, 3)
    assert not np.any(F) and not np.any(J)
    assert_jacobian_matches_fd(sysZ, x)

    # one empty equation between nonempty ones leaves the others intact
    arr = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    arr[1] = 0.0
    A = Tensor(3, 3, arr)
    sysE = build_shifted_system(A, 0.0)
    F, J = sysE.value_and_jacobian(x)
    assert F[1] == 0 and not np.any(J[1])
    assert np.all(F[[0, 2]] != 0) and np.all(J[[0, 2]] != 0)
    assert np.max(np.abs(F - apply_power(A, x))) < 1e-12 * np.max(np.abs(F))
    assert_jacobian_matches_fd(sysE, x)


def test_polysystem_validation():
    with pytest.raises(ValueError):
        build_eigen_system(Tensor(2, 9, np.eye(9, dtype=complex)))  # no eigen-system at m=2
    with pytest.raises(ValueError):
        PolySystem(Tensor(2, 2, np.eye(2, dtype=complex)))
    # a matrix's shifted system is linear: F = (M - lam I) x, J = M - lam I
    M = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    sysM = build_shifted_system(Tensor(2, 2, M), 0.5)
    assert sysM.degrees == (1, 1) and sysM.total_degree == 1
    x = np.array([1.0 - 1j, 2.0])
    F, J = sysM.value_and_jacobian(x)
    assert np.allclose(J, M - 0.5 * np.eye(2)) and np.allclose(F, J @ x)


def test_start_solutions_satisfy_start_system():
    rng = np.random.default_rng(4)
    for m, n in [(3, 2), (4, 2), (3, 3)]:
        sysA = build_eigen_system(rand_tensor(m, n, rng))
        hom = _materialize(sysA, CFG)
        pts = hom.start_points()
        assert len(pts) == (m - 1) ** n
        H0, _, _, _ = hom._assemble(np.array(pts), np.zeros(len(pts), dtype=complex))
        assert np.max(np.abs(H0)) < 1e-12


def test_stacked_evaluation_matches_rows():
    # one stacked call gives, row for row, what one point at a time gives
    # (the single-point call is checked against apply_power and finite
    # differences above); m = 2 shifted systems broadcast S
    rng = np.random.default_rng(8)
    systems = [build_eigen_system(A) for A in (
        rand_tensor(3, 3, rng), rand_tensor(5, 2, rng), rand_tensor(6, 3, rng),
        motzkin_tensor())]
    systems += [build_shifted_system(rand_tensor(m, n, rng), 0.4 + 0.9j)
                for m, n in [(2, 3), (3, 2), (4, 3), (6, 3)]]
    for system in systems:
        U = (rng.standard_normal((5, system.nvars))
             + 1j * rng.standard_normal((5, system.nvars)))
        F, J = system.value_and_jacobian(U[:0])        # an empty stack
        assert F.shape == (0, system.neq)
        assert J.shape == (0, system.neq, system.nvars)
        F, J = system.value_and_jacobian(U)
        assert F.shape == (5, system.neq)
        assert J.shape == (5, system.neq, system.nvars)
        assert np.array_equal(system.evaluate(U), F)
        for p in range(5):
            Fp, Jp = system.value_and_jacobian(U[p])
            scale = 1 + np.max(np.abs(Jp))
            assert np.max(np.abs(F[p] - Fp)) <= 1e-13 * scale
            assert np.max(np.abs(J[p] - Jp)) <= 1e-13 * scale
    # so the line phase takes an empty stack, with no guard of its own
    hom = _materialize(systems[0], CFG)
    U, E, res, steps = homotopy._line_phase(
        hom, hom.start_points()[:0], STEP_TOL, np.zeros(0, dtype=int))
    v = systems[0].nvars
    assert [U.shape, E.shape, res.shape, steps.shape] == \
        [(0, v), (0, v), (0,), (0,)]


def test_stacked_solve_fails_only_singular_rows():
    rng = np.random.default_rng(9)
    J = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    J[1, :, 2] = 0.0
    rhs = rng.standard_normal((3, 4)) + 0j
    x, solved = _solve(J, rhs)
    assert solved.tolist() == [True, False, True]
    for p in (0, 2):
        assert np.allclose(x[p], np.linalg.solve(J[p], rhs[p]))

    # at u = 0 the equation rows of the homotopy Jacobian vanish: that
    # Newton row fails and stays put, the others move as they would alone
    hom = _materialize(build_eigen_system(rand_tensor(3, 2, rng)), CFG)
    U = np.array(hom.start_points()[:3])
    U[1] = 0.0
    t = np.array([0.5, 0.5, 0.25], dtype=complex)
    V, ok = hom.newton(U, t, CORRECTOR_TOL, 3)[:2]
    assert not ok[1] and np.array_equal(V[1], U[1])
    for p in (0, 2):
        Vp, okp = hom.newton(U[p:p + 1], t[p:p + 1], CORRECTOR_TOL, 3)[:2]
        assert ok[p] == okp[0]
        assert np.allclose(V[p], Vp[0], rtol=1e-13, atol=1e-13)


def track_alone(system, p):
    """Path p tracked by itself: track_all with its start point as a
    one-row stack."""
    starts = _Homotopy.start_points
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Homotopy, "start_points", lambda hom: starts(hom)[p:p + 1])
        (out,) = track_all(system, CFG)
    return out


def cremona_tensor():
    cre = np.zeros((3, 3, 3), dtype=complex)
    cre[0, 0, 1], cre[1, 0, 2], cre[2, 1, 2] = 1.0, 1.0, 2.0
    return Tensor(3, 3, cre)


def test_track_all_outcomes_follow_start_points():
    # the stacked line phase and endgame return, in start-point order,
    # the status, winding and endpoint of each path tracked alone; the
    # Cremona tensor sends paths into the endgame.  A path of winding 0
    # (here: one that never enters it) takes the same steps; the paths of
    # a cycle of winding w > 1 share its loops, so each takes fewer steps
    # than alone, where it makes all w loops of every circle itself
    rng = np.random.default_rng(10)
    for A, endgame in ((rand_tensor(4, 2, rng), False), (cremona_tensor(), True)):
        system = build_eigen_system(A)
        outs = track_all(system, CFG)
        assert len(outs) == len(_materialize(system, CFG).start_points())
        for p, out in enumerate(outs):
            alone = track_alone(system, p)
            assert (out.status, out.winding) == (alone.status, alone.winding)
            if out.winding == 0:
                assert out.steps == alone.steps
            if out.winding > 1:
                assert out.steps < alone.steps
            if out.converged:
                assert np.allclose(out.endpoint, alone.endpoint, rtol=1e-8, atol=1e-8)
        assert any(o.winding > 0 for o in outs) == any(o.winding > 1 for o in outs) \
            == endgame


def test_endgame_loops_each_circle_once_per_cycle(monkeypatch):
    # every endgame path loops a circle once, all as one stack: Motzkin's
    # 40 winding-20 paths take two circles of 16 stacked arcs, not 2 x 20
    # loops each, and the paths of one Cremona cycle share one endpoint
    calls, in_line = [0], [0]
    step, line_phase = _Homotopy.step, homotopy._line_phase

    def counted(*args, **kwargs):
        calls[0] += 1
        return step(*args, **kwargs)

    def line_counted(*args):
        before = calls[0]
        out = line_phase(*args)
        in_line[0] += calls[0] - before
        return out

    monkeypatch.setattr(_Homotopy, "step", counted)
    monkeypatch.setattr(homotopy, "_line_phase", line_counted)
    outs = track_all(build_eigen_system(motzkin_tensor()), CFG)
    assert sum(o.winding == 20 for o in outs) == 40
    assert calls[0] - in_line[0] <= 48

    shared: dict = {}
    for o in track_all(build_eigen_system(cremona_tensor()), CFG):
        if o.winding:
            shared.setdefault(o.endpoint.tobytes(), []).append(o.winding)
    assert shared
    for windings in shared.values():
        assert windings == [windings[0]] * windings[0]


def test_jumped_paths_are_tracked_again(monkeypatch):
    # a regular root is reached by one path only: when the first pass
    # puts path j on path i's endpoint, exactly i and j are tracked
    # again, at a tighter step tolerance, and the report is clean
    A = rand_tensor(3, 3, np.random.default_rng(12))
    system = build_eigen_system(A)
    starts = _materialize(system, CFG).start_points()
    want = eigenclasses(A, CFG)
    line_phase, calls = homotopy._line_phase, []

    def jumping(hom, U0, tol, steps):
        U, E, res, steps = line_phase(hom, U0, tol, steps)
        calls.append((tol, U0))
        if len(calls) == 1:
            E[5], res[5] = E[2], res[2]
        return U, E, res, steps

    monkeypatch.setattr(homotopy, "_line_phase", jumping)
    report = eigenclasses(A, CFG)
    assert [tol for tol, _ in calls] == [STEP_TOL, 1e-3 * STEP_TOL]
    assert np.array_equal(calls[1][1], starts[[2, 5]])
    assert report.clean
    assert len(report.classes) == len(want.classes) == expected_count(3, 3)
    for got, ref in zip(report.classes, want.classes):
        assert abs(got.representative.lam - ref.representative.lam) < 1e-8
        assert np.allclose(got.representative.x, ref.representative.x, atol=1e-8)


def test_path_that_leaves_the_chart_is_lost(tmp_path, capsys):
    # an eigenpair (x, lam) with c.u = 0 on the patch's hyperplane lies
    # at infinity in the chart: a rank-one correction of a random tensor
    # puts one there, and the path that goes to it ends as a lost path,
    # so the report is not clean, and `teneig eig` and `teneig singular`
    # (whose finite value list would miss the lost class) exit 2
    rng = np.random.default_rng(3)
    for m, n in [(3, 2), (3, 3), (4, 3)]:
        A0 = rand_tensor(m, n, rng)
        c = _materialize(build_eigen_system(A0), CFG).patch
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lam = -(c[:n] @ x) / c[n]
        corr = lam ** (m - 2) * x - apply_power(A0, x)
        for _ in range(m - 1):
            corr = np.multiply.outer(corr, x.conj() / (x.conj() @ x))
        A = Tensor(m, n, A0.array + corr)
        assert np.allclose(apply_power(A, x), lam ** (m - 2) * x, atol=1e-12)
        outs = track_all(build_eigen_system(A), CFG)
        assert [o.status for o in outs if not o.converged] == [STEP_UNDERFLOW]
        assert not eigenclasses(A, CFG).clean
        path = tmp_path / f"chart{m}{n}.json"
        path.write_text(json.dumps({
            "m": m, "n": n, "encoding": "dense",
            "entries": [[z.real, z.imag] for z in A.array.ravel()]}))
        assert main(["eig", str(path)]) == DEGENERATE
        assert "failed_paths=1" in capsys.readouterr().out
        assert main(["singular", str(path)]) == DEGENERATE
        assert "probe: inconclusive (1 failed paths may hide a value)" \
            in capsys.readouterr().out


def test_converged_endpoint_residuals(monkeypatch):
    rng = np.random.default_rng(6)
    for m, n in [(3, 2), (3, 3)]:
        A = rand_tensor(m, n, rng)
        outs = track_all(build_eigen_system(A), CFG)
        assert all(o.status == CONVERGED for o in outs)
        for o in outs:
            assert o.residual <= ACCEPT_RESIDUAL
        cls, dg = group_into_classes(outs, A, CFG)
        assert dg.failed_paths == 0
        assert sum(c.multiplicity for c in cls) == expected_count(m, n)
        assert all(c.multiplicity == 1 for c in cls)
        assert dg.trivial_paths == 1
        # two paths ending on one regular root keep the total but lose a
        # class: a multiplicity-2 class with a nonsingular Jacobian
        i, j = [p for p, o in enumerate(outs)
                if np.linalg.norm(o.endpoint[:n]) > 1e-3][:2]
        doubled = outs[:i] + (outs[j],) + outs[i + 1:]
        _, dg = group_into_classes(doubled, A, CFG)
        assert dg.degenerate_clusters == 1
        # with every path lost there is no class to order, and no error
        lost = tuple(homotopy.PathOutcome(homotopy.STEP_UNDERFLOW, None, 1.0)
                     for _ in outs)
        cls, dg = group_into_classes(lost, A, CFG)
        assert cls == () and dg.failed_paths == len(outs)
        # a pass that loses every path leaves no endpoint to refine
        with monkeypatch.context() as patched:
            patched.setattr(homotopy, "MAX_STEPS", 1)
            assert all(o.status == STEP_UNDERFLOW
                       for o in track_all(build_eigen_system(A), CFG))
        monkeypatch.setattr(spectra, "track_all", lambda system, cfg: doubled)
        assert not eigenclasses(A, CFG).clean


def test_count_theorem_at_scale():
    # 128 to 256 paths per solve, beyond the shapes of criterion 01
    for m, n in [(3, 7), (4, 5), (5, 4)]:
        report = eigenclasses(rand_tensor(m, n, np.random.default_rng([m, n, 11])), CFG)
        assert report.clean
        assert len(report.classes) == expected_count(m, n)
        assert all(c.multiplicity == 1 for c in report.classes)


def test_seed_robustness():
    rng = np.random.default_rng(123)
    A = rand_tensor(4, 2, rng)
    sysA = build_eigen_system(A)
    cfg_b = TrackerConfig(seed=987654321)
    cls_a, _ = group_into_classes(track_all(sysA, CFG), A, CFG)
    cls_b, _ = group_into_classes(track_all(sysA, cfg_b), A, cfg_b)
    assert len(cls_a) == len(cls_b)
    for a, b in zip(cls_a, cls_b):
        assert abs(a.representative.lam - b.representative.lam) < 1e-6
        assert np.max(np.abs(a.representative.x - b.representative.x)) < 1e-6
        assert a.multiplicity == b.multiplicity


def test_cluster_orbit_structure():
    # each lam != 0 class collects exactly m-2 endpoints whose lam-tilde
    # values differ by powers of exp(2*pi*i/(m-2))
    rng = np.random.default_rng(42)
    A = rand_tensor(5, 2, rng)
    m, k = 5, 3
    outs = track_all(build_eigen_system(A), CFG)
    groups = {}
    for o in outs:
        u = o.endpoint
        x, lt = u[:2], u[2]
        if np.linalg.norm(x) <= 1e-8 * np.linalg.norm(u):
            continue
        cp = canonicalize(EigenPair(lt ** k, x), m)
        key = tuple(np.round([cp.lam.real, cp.lam.imag]
                             + list(np.round(cp.x, 6).view(float)), 6))
        groups.setdefault(key, []).append((x.copy(), lt))
    assert len(groups) == expected_count(5, 2)
    zeta = np.exp(2j * np.pi / k)
    for members in groups.values():
        assert len(members) == k
        x0, _ = members[0]
        j = int(np.argmax(np.abs(x0)))
        descaled = [lt * (x0[j] / x[j]) for x, lt in members]
        hits = set()
        for lt in descaled:
            r = lt / descaled[0]
            jz = int(np.argmin(np.abs(zeta ** np.arange(k) - r)))
            assert abs(zeta ** jz - r) < 1e-6
            hits.add(jz)
        assert hits == set(range(k))


def test_matrix_identity_eigenspace():
    A = Tensor(2, 3, np.eye(3, dtype=complex))
    rep = eigenclasses(A, CFG)
    assert rep.positive_dimensional
    assert len(rep.classes) == 3
    for c in rep.classes:
        assert abs(c.representative.lam - 1.0) < 1e-8


def test_zero_tensor_positive_dimensional():
    A = diag_tensor([0.0, 0.0], 3)
    cls, dg = group_into_classes(track_all(build_eigen_system(A), CFG), A, CFG)
    assert dg.positive_dimensional
    for c in cls:
        assert abs(c.representative.lam) < 1e-8


def test_multiplicity_division_m4():
    # m=4 clusters carry m-2 = 2 paths per class
    A = diag_tensor([1.0, 1.0], 4)
    outs = track_all(build_eigen_system(A), CFG)
    cls, dg = group_into_classes(outs, A, CFG)
    assert dg.degenerate_clusters == 0
    assert sum(c.multiplicity for c in cls) == 4
    for c in cls:
        assert c.cluster_size == 2 * c.multiplicity


def assert_motzkin_picture(seed):
    # under other seeds the picture may lose paths or show degenerate
    # clusters, but never a family, and a clean report is the right one
    report = eigenclasses(motzkin_tensor(), TrackerConfig(seed=seed))
    assert not report.positive_dimensional
    if report.clean:
        assert len(report.classes) == 23
        assert report.total_multiplicity == 31
        assert tuple(k for _, k in value_multiplicities(report)) == (14, 8, 2, 1)


def test_motzkin_off_the_default_seed():
    for seed in range(1, 13):
        if seed != 9:
            assert_motzkin_picture(seed)


@pytest.mark.xfail(strict=True, reason="seed 9 splits the 5-fold class at "
                   "(1, 0, 0) into 12 paths and two strays, and the report "
                   "is clean; the cluster size of a singular class is not "
                   "checked against its local multiplicity")
def test_motzkin_seed_9_clean_report_is_right():
    assert_motzkin_picture(9)


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(cluster_radius=0.0)
    with pytest.raises(ValueError):
        TrackerConfig(cluster_radius=-1e-6)
