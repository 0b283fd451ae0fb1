"""Tests for the projective self-map: orbits, base loci, nilpotency."""

import json
import time

import numpy as np

from teneig import dynamics
from teneig.dynamics import (
    NILPOTENT,
    NOT_NILPOTENT,
    UNDETERMINED,
    BaseLocusHit,
    Orbit,
    base_locus,
    nilpotency,
    orbit,
    psi,
)
from teneig.homotopy import TrackerConfig
from teneig.spectra import eigenclasses
from teneig.tensor import ProjPoint, Tensor
from teneig.tensorio import parse_tensor_json

CFG = TrackerConfig()


def translation_tensor():
    # psi(x1 : x2) = (x1^2 : x1^2 + x1 x2), a translation in the x2/x1 chart
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0] = 1.0
    arr[1, 0, 0] = 1.0
    arr[1, 0, 1] = 1.0
    return Tensor(3, 2, arr)


def cremona_tensor():
    arr = np.zeros((3, 3, 3), dtype=complex)
    arr[0, 0, 1] = 1.0
    arr[1, 0, 2] = 1.0
    arr[2, 1, 2] = 2.0
    return Tensor(3, 3, arr)


def diag_tensor(a, m):
    a = np.asarray(a, dtype=complex)
    n = a.size
    arr = np.zeros((n,) * m, dtype=complex)
    for i in range(n):
        arr[(i,) * m] = a[i]
    return Tensor(m, n, arr)


def test_psi_basic():
    q = psi(translation_tensor(), [1.0, 1.0])
    assert isinstance(q, ProjPoint)
    assert q.distance(ProjPoint([1.0, 2.0])) < 1e-12

    hit = psi(cremona_tensor(), [1.0, 0.0, 0.0])
    assert isinstance(hit, BaseLocusHit)

    I2 = Tensor(2, 2, np.eye(2, dtype=complex))
    p0 = ProjPoint([0.3, -0.7 + 0.2j])
    assert psi(I2, p0).distance(p0) < 1e-12


def test_orbit_fixed_point_reports_eigenpair():
    ob = orbit(diag_tensor([1, 1], 3), [1.0, 1.0], kmax=10)
    assert isinstance(ob, Orbit)
    assert ob.fixed_point and len(ob) == 1
    assert abs(ob.eigenvalue) > 1e-8
    assert ob.eigen_residual < 1e-9


def test_orbit_translation_never_settles():
    ob = orbit(translation_tensor(), [1.0, 0.0], kmax=5)
    assert not ob.fixed_point and not ob.base_locus_hit
    assert len(ob) == 6
    for k, p in enumerate(ob):
        w = p.coords / p.coords[0]
        assert abs(w[1] - k) < 1e-9


def test_orbit_cremona_first_steps():
    ob = orbit(cremona_tensor(), [1.0, 1.0, 1.0], kmax=2)
    w1 = ob[1].coords / ob[1].coords[0]
    w2 = ob[2].coords / ob[2].coords[0]
    assert np.allclose(w1, [1, 1, 2], atol=1e-10)
    assert np.allclose(w2, [1, 2, 4], atol=1e-10)


def test_orbit_ends_on_base_locus():
    ob = orbit(cremona_tensor(), [1.0, 0.0, 0.2], kmax=5)
    # (1 : 0 : t) maps to (0 : t : 0), a coordinate point in the base locus
    assert ob.base_locus_hit
    assert len(ob) == 2


def test_base_locus_examples():
    bl = base_locus(cremona_tensor(), CFG)
    assert len(bl) == 3
    for e in np.eye(3):
        assert any(p.distance(ProjPoint(e.astype(complex))) < 1e-6 for p in bl)

    assert base_locus(diag_tensor([1, 1], 3), CFG) == ()

    blt = base_locus(translation_tensor(), CFG)
    assert len(blt) == 1
    assert blt[0].distance(ProjPoint([0.0, 1.0])) < 1e-6


def test_dynamics_reuses_a_given_report(monkeypatch):
    # `teneig dynamics` solves once and hands the report to both
    for A in (cremona_tensor(), diag_tensor([1, 1], 3)):
        report = eigenclasses(A, CFG)
        want = nilpotency(A, kmax=3, cfg=CFG), base_locus(A, CFG)

        def no_solve(*args):
            raise AssertionError("solved again")
        monkeypatch.setattr(dynamics, "eigenclasses", no_solve)
        got = (nilpotency(A, kmax=3, cfg=CFG, report=report),
               base_locus(A, CFG, report=report))
        monkeypatch.undo()
        assert (got[0].status, got[0].k) == (want[0].status, want[0].k)
        assert (got[0].witness is None) == (want[0].witness is None)
        assert len(got[1]) == len(want[1])
        assert all(p.distance(q) == 0 for p, q in zip(got[1], want[1]))


def test_fixed_point_correspondence():
    # lam != 0 classes are fixed points of psi; lam = 0 classes hit the base locus
    rng = np.random.default_rng(60)
    tensors = [Tensor(3, 2, rng.standard_normal((2, 2, 2))
                      + 1j * rng.standard_normal((2, 2, 2))),
               Tensor(3, 3, rng.standard_normal((3, 3, 3))
                      + 1j * rng.standard_normal((3, 3, 3))),
               cremona_tensor()]
    for A in tensors:
        rep = eigenclasses(A, CFG)
        for c in rep.classes:
            p = ProjPoint(c.representative.x)
            out = psi(A, p)
            if abs(c.representative.lam) > 1e-8:
                assert isinstance(out, ProjPoint)
                assert out.distance(p) < 1e-9
            else:
                assert isinstance(out, BaseLocusHit)


def test_nilpotency_verdicts():
    J = Tensor(2, 2, np.array([[0, 1], [0, 0]], dtype=complex))
    v = nilpotency(J, kmax=1, cfg=CFG)
    assert v.status == NILPOTENT and v.is_nilpotent and v.k == 2

    v2 = nilpotency(diag_tensor([1, 1], 3), kmax=3, cfg=CFG)
    assert v2.status == NOT_NILPOTENT
    assert abs(v2.witness.representative.lam) > 1e-8

    v3 = nilpotency(translation_tensor(), kmax=4, cfg=CFG)
    assert v3.status == UNDETERMINED and v3.k == 4

    v4 = nilpotency(cremona_tensor(), kmax=3, cfg=CFG)
    assert v4.status == UNDETERMINED


def test_nilpotent_order3_example():
    # psi(x) = (x2^2, 0): second iterate vanishes identically
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 1, 1] = 1.0
    A = Tensor(3, 2, arr)
    v = nilpotency(A, kmax=3, cfg=CFG)
    assert v.status == NILPOTENT and v.k == 2
    # nilpotent map: the spectrum carries only lam = 0
    rep = eigenclasses(A, CFG)
    for c in rep.classes:
        assert abs(c.representative.lam) < 1e-8


def test_matrix_nilpotency_matches_power_criterion():
    rng = np.random.default_rng(62)
    for trial in range(50):
        n = int(rng.integers(2, 5))
        M = np.triu(rng.standard_normal((n, n)), 1)  # strictly upper triangular
        T = Tensor(2, n, M.astype(complex))
        verdict = nilpotency(T, kmax=1, cfg=CFG)
        assert verdict.is_nilpotent
        assert verdict.k <= n
        assert not np.any(np.linalg.matrix_power(M, verdict.k))
        assert np.any(np.linalg.matrix_power(M, verdict.k - 1))
    for trial in range(50):
        n = int(rng.integers(2, 5))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T = Tensor(2, n, M)
        verdict = nilpotency(T, kmax=1, cfg=CFG)
        truly = np.allclose(np.linalg.matrix_power(M, n), 0.0, atol=1e-10)
        assert verdict.is_nilpotent == truly, (trial, verdict.status)


def test_nilpotency_not_fooled_by_high_degree_cancellation():
    # a float tolerance on expanded iterates of degree 3^6 called these
    # nilpotent; each has eigenvalues lam != 0, so no iterate can vanish
    fault = [1, 2, -1, 3, 1, 1, 2, -1, 1, 0, 2, 1, -3, 1, 1, 2]
    v = nilpotency(Tensor.from_flat(4, 2, fault), kmax=6, cfg=CFG)
    assert v.status == NOT_NILPOTENT
    assert abs(v.witness.representative.lam) > 1e-8

    rng = np.random.default_rng(42)
    for _ in range(5):
        A = Tensor(4, 2, rng.standard_normal((2,) * 4)
                   + 1j * rng.standard_normal((2,) * 4))
        assert nilpotency(A, kmax=6, cfg=CFG).status == NOT_NILPOTENT

    # expanding iterates of degree 3^6 in three variables does not finish;
    # the exact orbit plus one 27-path solve takes about 0.4 s
    A = Tensor(4, 3, rng.standard_normal((3,) * 4)
               + 1j * rng.standard_normal((3,) * 4))
    start = time.perf_counter()
    assert nilpotency(A, kmax=6, cfg=CFG).status == NOT_NILPOTENT
    assert time.perf_counter() - start < 5.0


def test_nilpotency_exact_entries_and_least_index():
    # [[1, 1/3], [-3, -1]] squares to zero only with the exact 1/3
    text = json.dumps({"m": 2, "n": 2, "encoding": "dense",
                       "entries": [1, "1/3", -3, -1]})
    v = nilpotency(parse_tensor_json(text).tensor, kmax=1, cfg=CFG)
    assert v.status == NILPOTENT and v.k == 2
    stored = Tensor(2, 2, np.array([[1, 1 / 3], [-3, -1]], dtype=complex))
    assert not nilpotency(stored, kmax=1, cfg=CFG).is_nilpotent

    for n in (2, 3, 4, 5):
        shift = Tensor(2, n, np.eye(n, k=1, dtype=complex))
        v = nilpotency(shift, kmax=1, cfg=CFG)
        assert v.status == NILPOTENT and v.k == n

    zero = Tensor(3, 3, np.zeros((3, 3, 3), dtype=complex))
    v = nilpotency(zero, kmax=6, cfg=CFG)
    assert v.status == NILPOTENT and v.k == 1
