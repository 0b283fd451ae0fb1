"""Tests for spectral reports, probes, and closed-form oracles."""

import dataclasses
import json
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from teneig import homotopy, spectra
from teneig.homotopy import TrackerConfig, track_all
from teneig.spectra import (
    COFINITE_COMPLEMENT,
    FINITE_VALUES,
    SpectralReport,
    _merge_values,
    characteristic_polynomial_numeric,
    diagonal_classes,
    eigenclasses,
    is_positive_semidefinite,
    real_classes,
    real_representative,
    shifted_singularity_check,
    singular_probe,
    value_multiplicities,
    zero_eigenvectors,
)
from teneig.exact import is_singular_222
from teneig.tensorio import parse_tensor_json
from teneig.tensor import (
    EigenClass,
    EigenPair,
    PolyForm,
    Tensor,
    form_from_tensor,
    normalized_eigenvalues,
    tensor_from_form,
)

CFG = TrackerConfig()


def diag_tensor(a, m):
    a = np.asarray(a, dtype=complex)
    n = a.size
    arr = np.zeros((n,) * m, dtype=complex)
    for i in range(n):
        arr[(i,) * m] = a[i]
    return Tensor(m, n, arr)


def rand_tensor(m, n, rng, real=False):
    arr = rng.standard_normal((n,) * m)
    if not real:
        arr = arr + 1j * rng.standard_normal((n,) * m)
    return Tensor(m, n, arr.astype(complex))


def sym_tensor(m, n, rng, real=False):
    arr = rng.standard_normal((n,) * m)
    if not real:
        arr = arr + 1j * rng.standard_normal((n,) * m)
    out = np.zeros_like(arr, dtype=complex)
    for p in permutations(range(m)):
        out += np.transpose(arr, p)
    return Tensor(m, n, out / factorial(m))


def fineprint_tensor():
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0] = 1.0
    arr[0, 0, 1] = 1.0j
    arr[1, 1, 0] = 1.0
    arr[1, 1, 1] = 1.0j
    return Tensor(3, 2, arr)


def test_unit_diagonal_report():
    rep = eigenclasses(diag_tensor([1, 1], 3), CFG)
    assert rep.total_multiplicity == rep.expected_count == 3
    assert not rep.positive_dimensional and rep.failed_paths == 0
    got = sorted(v.real for v in rep.normalized_values)
    want = sorted([1, -1, 2 ** -0.5, -(2 ** -0.5)])
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-8
    assert all(abs(v.imag) < 1e-8 for v in rep.normalized_values)
    assert rep.clean


def test_report_clean_requires_the_count():
    # a lost or doubled path leaves no failed path behind, only a total
    # multiplicity off the count theorem's
    def report(*mults):
        classes = tuple(EigenClass(EigenPair(1.0, [1.0, 0.0]), k)
                        for k in mults)
        return SpectralReport(m=3, n=2, classes=classes,
                              positive_dimensional=False, failed_paths=0)

    rep = report(1, 2)
    assert rep.total_multiplicity == rep.expected_count == 3
    assert rep.clean
    for mults in ((2,), (1, 1, 2)):
        assert not report(*mults).clean
    assert not dataclasses.replace(rep, positive_dimensional=True).clean


def test_merge_values_order_ignores_last_bits():
    # a conjugate pair whose real parts agree only to rounding is listed
    # the same way whichever of the two real parts is the larger
    a, b = 0.3, 1.7
    for re_up, re_down in ((a, a * (1 + 1e-15)), (a * (1 + 1e-15), a)):
        pair = [complex(re_up, b), complex(re_down, -b)]
        for values in (pair, pair[::-1]):
            assert [z.imag for z in _merge_values(values)] == [-b, b]
            # value_multiplicities lists the pair in the same order
            classes = tuple(EigenClass(EigenPair(1.0, [1.0, 0.0]), k,
                                       normalized_lambdas=(v,))
                            for k, v in enumerate(values, start=1))
            report = SpectralReport(m=4, n=2, classes=classes,
                                    positive_dimensional=False,
                                    failed_paths=0)
            assert [z.imag for z, _ in value_multiplicities(report)] == [-b, b]


def test_diagonal_classes_oracle():
    assert len(diagonal_classes([1, 1], 3)) == 3
    assert len(diagonal_classes([1, 1], 4)) == 4
    assert len(diagonal_classes([1, 1, 1], 3)) == 7
    # entries with modulus away from 1 keep the defining residual at roundoff
    for c in diagonal_classes([2.0, 3.0j], 4):
        assert c.representative.residual < 1e-12


def test_diagonal_oracle_matches_tracked_classes():
    A = diag_tensor([2.0, 3.0j], 4)
    rep = eigenclasses(A, CFG)
    oracle = diagonal_classes([2.0, 3.0j], 4)
    oracle_vals = [complex(v) for c in oracle for v in c.normalized_lambdas]
    assert rep.total_multiplicity == 4
    for v in rep.normalized_values:
        assert min(abs(v - w) for w in oracle_vals) < 1e-8


def test_scaling_covariance():
    rng = np.random.default_rng(50)
    for trial in range(5):
        A = rand_tensor(3, 2, rng)
        s = complex(0.5 + rng.random(), rng.standard_normal())
        B = Tensor(3, 2, s * A.array)
        va = sorted(eigenclasses(A, CFG).normalized_values,
                    key=lambda z: (z.real, z.imag))
        vb = sorted(eigenclasses(B, CFG).normalized_values,
                    key=lambda z: (z.real, z.imag))
        assert len(va) == len(vb)
        for v in va:
            assert min(abs(s * v - w) for w in vb) < 1e-8 * (1 + abs(s * v))


def test_parity_of_normalized_values():
    rng = np.random.default_rng(51)
    for m, n in [(3, 2), (5, 2)]:
        rep = eigenclasses(rand_tensor(m, n, rng), CFG)
        vals = rep.normalized_values
        for v in vals:
            assert min(abs(v + w) for w in vals) < 1e-8 * (1 + abs(v))
    for _ in range(3):
        rep = eigenclasses(rand_tensor(4, 2, rng), CFG)
        for c in rep.classes:
            if not c.isotropic:
                assert len(c.normalized_lambdas) == 1


def test_real_existence():
    # random real tensors always carry at least one real class when m or n is odd
    rng = np.random.default_rng(52)
    for m, n in [(3, 2), (2, 3), (3, 3), (5, 2)]:
        for trial in range(50):
            rep = eigenclasses(rand_tensor(m, n, rng, real=True), CFG)
            assert len(real_classes(rep)) >= 1, (m, n, trial)


def test_sphere_critical_chain():
    # for a real symmetric tensor, lam = m f(x) at every normalized real pair
    rng = np.random.default_rng(53)
    shapes = [(3, 2), (4, 2), (3, 3), (4, 3)]
    for m, n in shapes:
        for _ in range(2):
            A = sym_tensor(m, n, rng, real=True)
            f = form_from_tensor(A)
            rep = eigenclasses(A, CFG)
            for c in real_classes(rep):
                p = real_representative(c, m)
                assert p is not None
                x = np.real(p.x)
                lam = p.lam.real
                nx = np.linalg.norm(x)
                xh = x / nx
                lh = lam / nx ** (m - 2)
                assert abs(m * f(xh) - lh) < 1e-8 * (1 + abs(lh))


def test_real_representative_rejects_rotation_classes():
    arr = np.zeros((2, 2, 2, 2), dtype=complex)
    arr[0, 1, 1, 1] = 1.0
    arr[1, 0, 0, 0] = -1.0
    rep = eigenclasses(Tensor(4, 2, arr), CFG)
    assert rep.failed_paths == 0
    assert real_classes(rep) == ()
    for c in rep.classes:
        assert real_representative(c, 4) is None


def test_shifted_singularity_check_examples():
    motzkin = PolyForm(6, 3, {(4, 2, 0): 1.0, (2, 4, 0): 1.0,
                              (2, 2, 2): -3.0, (0, 0, 6): 1.0})
    assert shifted_singularity_check(motzkin, 6.0, [0.0, 0.0, 1.0])
    quart = PolyForm(4, 2, {(4, 0): 1.0})
    assert shifted_singularity_check(quart, 4.0, [1.0, 0.0])
    assert not shifted_singularity_check(quart, 1.0, [1.0, 0.0])


def test_shifted_singularity_check_random_pairs():
    # emitted normalized pairs pass; arbitrary (lam, x) do not
    rng = np.random.default_rng(54)
    A = sym_tensor(3, 2, rng)
    f = form_from_tensor(A)
    rep = eigenclasses(A, CFG)
    checked = 0
    for c in rep.classes:
        if c.isotropic:
            continue
        x = np.asarray(c.representative.x)
        lam = c.representative.lam
        nx = np.linalg.norm(x)
        x1, lam1 = x / nx, lam / nx
        t = 1.0 / np.sqrt(complex(x1 @ x1))
        for tt in (t, -t):
            checked += 1
            assert shifted_singularity_check(f, tt * lam1, tt * x1)
    assert checked >= 2
    misses = 0
    for _ in range(20):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = x / np.sqrt(complex(x @ x))
        lam = complex(1.0 + rng.random(), rng.standard_normal())
        misses += not shifted_singularity_check(f, lam, x)
    assert misses == 20


def test_singular_probe_cofinite_fineprint():
    pr = singular_probe(fineprint_tensor(), trials=5, cfg=CFG)
    assert pr.kind == COFINITE_COMPLEMENT
    assert pr.cofinite
    assert any(abs(e) < 1e-12 for e in pr.exceptions)
    assert pr.trials == 5


def test_singular_probe_finite_cases():
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0] = 1.0
    arr[0, 1, 1] = 1.0
    pr = singular_probe(Tensor(3, 2, arr), trials=5, cfg=CFG)
    assert pr.kind == FINITE_VALUES
    got = sorted(v.real for v in pr.values)
    assert np.allclose(got, [-1, 1], atol=1e-8)

    rng = np.random.default_rng(55)
    A = rand_tensor(3, 2, rng)
    pr2 = singular_probe(A, trials=5, cfg=CFG)
    rep = eigenclasses(A, CFG)
    assert pr2.kind == FINITE_VALUES
    for v in pr2.values:
        assert min(abs(v - w) for w in rep.normalized_values) < 1e-8

    with pytest.raises(ValueError):
        singular_probe(A, trials=2, cfg=CFG)


def test_singular_probe_family_through_zero():
    # A x^2 = x1 x: every x is an eigenvector with normalized value x1,
    # and x = (0, 1) has x.x = 1 with A x^2 = 0, so 0 is attained too
    A = parse_tensor_json(json.dumps({
        "m": 3, "n": 2, "encoding": "dense",
        "entries": [1, 0, 0, 0, 0, "1/2", "1/2", 0]})).tensor
    pr = singular_probe(A, trials=5, cfg=CFG)
    assert pr.kind == COFINITE_COMPLEMENT
    assert pr.exceptions == ()
    assert is_singular_222(A)


def test_singular_probe_makes_one_solve(monkeypatch):
    # the probe answers its trials from one eigenclasses solve, and
    # grouping decides a positive-dimensional family without another
    calls = []

    def counted(system, cfg):
        calls.append(system)
        return track_all(system, cfg)

    monkeypatch.setattr(spectra, "track_all", counted)
    monkeypatch.setattr(homotopy, "track_all", counted)     # a solve in grouping
    for A in (rand_tensor(3, 2, np.random.default_rng(58)), fineprint_tensor()):
        calls.clear()
        singular_probe(A, trials=5, cfg=CFG)
        assert len(calls) == 1
        assert calls[0].lam is None


def test_probe_cofinite_implies_exact_singular():
    # scaled copies of a singular tensor stay singular; the numeric
    # verdict must agree with the exact certificate each time
    for s in (1.0, 2.0, 1.0 + 1.0j):
        A = Tensor(3, 2, s * fineprint_tensor().array)
        pr = singular_probe(A, trials=4, cfg=CFG)
        assert pr.kind == COFINITE_COMPLEMENT
        assert is_singular_222(A)
    rng = np.random.default_rng(56)
    B = rand_tensor(3, 2, rng)
    assert singular_probe(B, trials=4, cfg=CFG).kind == FINITE_VALUES
    assert not is_singular_222(B)


def family_tensor():
    # A x^2 = (2 x1^2 + x2^2 + x3^2, 2 x1 x2, 2 x1 x3): a family of classes
    arr = np.zeros((3, 3, 3), dtype=complex)
    arr[0, 0, 0] = 2.0
    for p in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0)]:
        arr[p] = 1.0
    return Tensor(3, 3, arr)


def capture_slides(monkeypatch):
    """Record every gauss_newton call of the probe and of grouping."""
    calls = []
    run = homotopy.gauss_newton

    def capture(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(spectra, "gauss_newton", capture)
    monkeypatch.setattr(homotopy, "gauss_newton", capture)
    return calls


def rows_alone(system, X, L, rows, tol):
    """Each row of a slide stack run by itself, as a stack of one."""
    return np.array([homotopy.gauss_newton(
        system, X[[p]], L[[p]], lambda idx, x, lam, p=p: rows(idx + p, x, lam),
        tol)[0] for p in range(len(X))])


def test_stacked_slides_match_each_row_alone(monkeypatch):
    calls = capture_slides(monkeypatch)
    rational = parse_tensor_json(json.dumps({
        "m": 3, "n": 2, "encoding": "dense",
        "entries": [1, "1/2", -2, 3, "2/3", 0, 1, -1]})).tensor
    through_zero = parse_tensor_json(json.dumps({
        "m": 3, "n": 2, "encoding": "dense",
        "entries": [1, 0, 0, 0, 0, "1/2", "1/2", 0]})).tensor
    motzkin = tensor_from_form(PolyForm(6, 3, {
        (4, 2, 0): 1.0, (2, 4, 0): 1.0, (2, 2, 2): -3.0, (0, 0, 6): 1.0}))
    for run, A, hits in ((singular_probe, rational, "none"),
                         (singular_probe, through_zero, "all"),
                         (eigenclasses, family_tensor(), "all"),
                         (eigenclasses, motzkin, "none")):
        calls.clear()
        run(A, cfg=CFG)
        args = calls[-1]        # the probe's slides come after grouping's
        stacked = homotopy.gauss_newton(*args)
        assert {"none": not stacked.any(), "all": stacked.all()}[hits]
        assert np.array_equal(stacked, rows_alone(*args))
    # the family rows of the family tensor, the first start poisoned: its
    # step is non-finite, and the other rows slide on as before
    calls.clear()
    eigenclasses(family_tensor(), CFG)
    system, X, L, rows, tol = calls[0]
    X = X.copy()
    X[0] = np.nan
    poisoned = homotopy.gauss_newton(system, X, L, rows, tol)
    assert len(X) > 1 and not poisoned[0] and poisoned[1:].all()
    assert np.array_equal(poisoned, rows_alone(system, X, L, rows, tol))


def test_probe_and_grouping_slide_in_one_stacked_call(monkeypatch):
    calls, evals = [], []
    run = homotopy.gauss_newton

    class Counted:
        def __init__(self, system):
            self.system = system

        def value_and_jacobian(self, x):
            evals.append(x.shape)
            return self.system.value_and_jacobian(x)

    def counted(system, X, *args):
        calls.append(len(X))
        return run(Counted(system), X, *args)

    monkeypatch.setattr(spectra, "gauss_newton", counted)
    monkeypatch.setattr(homotopy, "gauss_newton", counted)
    # a generic tensor: grouping slides nothing (no singular class), and
    # the probe's rows, 5 trials and lam = 0 times 3 classes, all miss
    # within the 40 evaluations of one call; rows that stall leave it
    singular_probe(rand_tensor(3, 2, np.random.default_rng(58)), cfg=CFG)
    assert calls == [6 * 3]
    assert 0 < len(evals) <= 40
    assert evals[0] == (6 * 3, 2) and all(len(s) == 2 for s in evals)
    assert evals[-1][0] < evals[0][0]
    for A in (family_tensor(), diag_tensor([0.0, 0.0, 0.0], 3),
              fineprint_tensor()):
        calls.clear()
        eigenclasses(A, CFG)
        assert len(calls) == 1


def test_matrix_charpoly_against_companion_roots():
    rng = np.random.default_rng(57)
    for _ in range(3):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # Faddeev-LeVerrier coefficients, then companion roots via np.roots
        cs = [1.0 + 0.0j]
        N = np.zeros((4, 4), dtype=complex)
        for k in range(1, 5):
            N = M @ N + cs[-1] * np.eye(4)
            cs.append(-np.trace(M @ N) / k)
        want = sorted(np.roots(cs), key=lambda z: (z.real, z.imag))
        rep = eigenclasses(Tensor(2, 4, M), CFG)
        got = sorted((v for c in rep.classes for v in c.normalized_lambdas),
                     key=lambda z: (z.real, z.imag))
        assert len(got) == 4
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-8


def test_matrix_defective_eigenvalue_is_one_class():
    # eig spreads a k-fold defective eigenvalue by about eps^(1/k), far
    # beyond the cluster radius for k >= 3; it must still be one class
    rng = np.random.default_rng(58)

    def conjugated(B):
        S = rng.standard_normal(B.shape)
        return Tensor(2, len(B), (S @ B @ np.linalg.inv(S)).astype(complex))

    for k in range(2, 6):
        jordan = 0.5 * np.eye(k) + np.eye(k, k=1)
        rep = eigenclasses(conjugated(jordan), CFG)
        assert rep.clean and len(rep.classes) == 1
        assert rep.classes[0].multiplicity == k
        assert abs(rep.classes[0].representative.lam - 0.5) < 1e-8

    B = np.diag([0.5, 0.5, 0.5, 2.0, -1.0]) + np.diag([1.0, 1.0, 0, 0], 1)
    rep = eigenclasses(conjugated(B), CFG)
    assert rep.clean and rep.total_multiplicity == 5
    got = sorted((c.representative.lam.real, c.multiplicity) for c in rep.classes)
    assert [m for _, m in got] == [1, 3, 1]
    assert np.allclose([lam for lam, _ in got], [-1.0, 0.5, 2.0], atol=1e-8)
    # a distinct eigenvalue 1e-3 away, linked to a triple one but not part
    # of it: the group is split again without shattering the triple one
    B = np.diag([0.5, 0.5, 0.5, 0.501]) + np.diag([1.0, 1.0, 0], 1)
    rep = eigenclasses(conjugated(B), CFG)
    got = sorted((c.representative.lam.real, c.multiplicity) for c in rep.classes)
    assert rep.clean and [m for _, m in got] == [3, 1]
    assert np.allclose([lam for lam, _ in got], [0.5, 0.501], atol=1e-8)

    # distinct eigenvalues within that spread, placed around one of them,
    # stay distinct: each matrix gives its exact multiset of eigenvalues
    for diag in ([0.999, 1, 1.001, 5], [0.999, 1, 1, 1.001], range(1, 10),
                 [1 - 1e-3, 1, 1 + 1e-3, 1 + 1e-3j, 1 - 1e-3j]):
        want = np.sort_complex(np.array(diag, dtype=complex))
        rep = eigenclasses(Tensor(2, len(want), np.diag(want)), CFG)
        got = np.sort_complex([c.representative.lam for c in rep.classes
                               for _ in range(c.multiplicity)])
        assert got.shape == want.shape and np.allclose(got, want, atol=1e-12)
        assert rep.degenerate_clusters == 0
        assert rep.positive_dimensional == (len(set(want)) < len(want))

    # near-parallel eigenvectors, but 1e-4 apart: beyond what eig spreads
    # a defective double eigenvalue by, so two classes
    B = np.diag([1.0, 1.0 + 1e-4, 5.0, 7.0]) + np.diag([1.0, 0, 0], 1)
    rep = eigenclasses(Tensor(2, 4, B.astype(complex)), CFG)
    assert rep.clean and [c.multiplicity for c in rep.classes] == [1, 1, 1, 1]


def test_matrix_close_distinct_eigenvalues_are_degenerate():
    # values closer than --tol with no eigenvector at their mean merge into
    # one class, counted as a degenerate cluster so the report is not clean
    rep = eigenclasses(Tensor(2, 2, np.diag([1.0, 1.0 + 1e-7]).astype(complex)), CFG)
    assert not rep.clean and rep.degenerate_clusters == 1
    assert [c.multiplicity for c in rep.classes] == [2]


def test_matrix_spectrum_has_no_size_cap():
    rng = np.random.default_rng(59)
    M = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    rep = eigenclasses(Tensor(2, 12, M), CFG)
    assert rep.clean and rep.total_multiplicity == 12
    got = sorted((c.representative.lam for c in rep.classes
                  for _ in range(c.multiplicity)), key=lambda z: (z.real, z.imag))
    want = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag))
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-8


def test_charpoly_numeric_matrix_identity():
    cp = characteristic_polynomial_numeric(Tensor(2, 2, np.eye(2, dtype=complex)), CFG)
    assert cp.parity == "lambda"
    assert not cp.indeterminate
    assert np.allclose(cp.coeffs, [1, -2, 1], atol=1e-8)
    assert abs(cp(1.0)) < 1e-8
    # J_2(1) + 1: two eigenvector classes, yet the polynomial is (lam - 1)^3
    J = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=complex)
    cp = characteristic_polynomial_numeric(Tensor(2, 3, J), CFG)
    assert not cp.indeterminate and cp.degree == 3
    assert np.allclose(cp.coeffs, [1, -3, 3, -1], atol=1e-12)


def test_charpoly_numeric_generic_m3():
    rng = np.random.default_rng(7)
    A = rand_tensor(3, 2, rng)
    cp = characteristic_polynomial_numeric(A, CFG)
    assert cp.parity == "mu" and cp.degree == 3 and not cp.indeterminate
    rep = eigenclasses(A, CFG)
    mus = {complex(np.round(v ** 2, 8)) for v in rep.normalized_values}
    roots = np.roots(cp.coeffs)
    assert len(roots) == 3
    for r in roots:
        assert min(abs(r - v) for v in mus) < 1e-6 * (1 + abs(r))
    assert abs(cp.coeffs[0] - 1.0) < 1e-12  # monic


def test_charpoly_numeric_indeterminate_on_degenerate_input():
    arr = np.zeros((3, 3, 3), dtype=complex)
    arr[0, 0, 0] = 2.0
    for p in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0)]:
        arr[p] = 1.0
    cp = characteristic_polynomial_numeric(Tensor(3, 3, arr), CFG)
    assert cp.indeterminate
    assert cp.reason != ""


def test_psd_quartics():
    f_neg = PolyForm(4, 2, {(4, 0): -1.0, (0, 4): -1.0})
    f_sos = PolyForm(4, 2, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0})
    assert not is_positive_semidefinite(f_neg, CFG)
    assert is_positive_semidefinite(f_sos, CFG)
    with pytest.raises(ValueError):
        is_positive_semidefinite(PolyForm(3, 2, {(3, 0): 1.0}), CFG)  # odd degree
    with pytest.raises(ValueError):
        is_positive_semidefinite(PolyForm(4, 2, {(4, 0): 1.0j}), CFG)  # complex


def test_zero_eigenvectors():
    fermat = PolyForm(3, 3, {(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0})
    assert len(zero_eigenvectors(fermat, CFG)) == 0

    nodal = PolyForm(3, 3, {(2, 0, 1): 1.0, (0, 3, 0): -1.0, (0, 2, 1): -1.0})
    zl = zero_eigenvectors(nodal, CFG)
    assert zl.contains([0.0, 0.0, 1.0])
    assert not zl.contains([1.0, 0.0, 0.0])


def test_value_multiplicities():
    rep = eigenclasses(diag_tensor([1, 1], 3), CFG)
    vm = value_multiplicities(rep)
    # odd m: each class appears at both signs; diag(1,1) has a double value
    assert sum(k for _, k in vm) == 6
    by_val = {complex(np.round(v, 6)): k for v, k in vm}
    assert by_val[complex(1.0)] == 2
    assert by_val[complex(-1.0)] == 2


def test_single_class_normalized_values_match_helper():
    rng = np.random.default_rng(58)
    A = rand_tensor(3, 2, rng)
    rep = eigenclasses(A, CFG)
    for c in rep.classes:
        direct = normalized_eigenvalues(c.representative, 3)
        assert len(direct) == len(c.normalized_lambdas)
        for v in direct:
            assert min(abs(v - w) for w in c.normalized_lambdas) < 1e-8
