"""Tests for the core types: tensors, forms, pairs, and canonical forms."""

import time

import numpy as np
import pytest

from teneig.tensor import (
    EigenPair,
    PolyForm,
    ProjPoint,
    Tensor,
    apply_power,
    canonicalize,
    equivalent,
    expected_count,
    form_from_tensor,
    normalized_eigenvalues,
    scalar_form,
    tensor_from_form,
)


def sym_tensor(m, n, rng):
    from itertools import permutations
    from math import factorial

    arr = rng.standard_normal((n,) * m)
    out = np.zeros_like(arr)
    for p in permutations(range(m)):
        out += np.transpose(arr, p)
    return Tensor(m, n, (out / factorial(m)).astype(complex))


def test_tensor_construction():
    arr = np.arange(8, dtype=complex).reshape((2, 2, 2))
    A = Tensor(3, 2, arr)
    assert A[1, 0, 1] == 5
    assert A.flat().shape == (8,)

    B = Tensor.from_flat(3, 2, np.arange(8))
    assert np.allclose(B.array, arr)

    with pytest.raises(ValueError):
        Tensor(3, 2, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Tensor.from_flat(3, 2, np.arange(7))


def test_tensor_symmetry_flag():
    rng = np.random.default_rng(0)
    assert sym_tensor(3, 3, rng).is_symmetric
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 1] = 1.0
    assert not Tensor(3, 2, arr).is_symmetric
    # perturbation below the symmetry tolerance still reads symmetric
    S = sym_tensor(3, 2, rng)
    bumped = S.array.copy()
    bumped[0, 0, 1] += 1e-14
    assert Tensor(3, 2, bumped).is_symmetric
    # one entry off the diagonal breaks symmetry however large m! n^m is
    for m, n in ((6, 5), (7, 3)):
        arr = np.zeros((n,) * m, dtype=complex)
        arr[(0,) + (1,) * (m - 1)] = 1.0
        assert not Tensor(m, n, arr).is_symmetric
        with pytest.raises(ValueError):
            form_from_tensor(Tensor(m, n, arr))
    big = PolyForm(7, 3, {(3, 2, 2): 1.0, (7, 0, 0): 2.0, (0, 1, 6): -1.5})
    assert tensor_from_form(big).is_symmetric


def test_expected_count():
    assert expected_count(3, 2) == 3
    assert expected_count(4, 2) == 4
    assert expected_count(5, 2) == 5
    assert expected_count(3, 3) == 7
    assert expected_count(4, 3) == 13
    assert expected_count(6, 3) == 31
    for n in range(1, 6):
        assert expected_count(2, n) == n
    with pytest.raises(ValueError):
        expected_count(1, 2)
    with pytest.raises(ValueError):
        expected_count(3, 0)


def test_polyform_basics():
    f = PolyForm(4, 2, {(4, 0): 1.0, (2, 2): -3.0, (0, 4): 2.0})
    assert f([1.0, 1.0]) == pytest.approx(0.0)
    assert f.coefficient((2, 2)) == -3.0
    assert f.coefficient((3, 1)) == 0.0
    with pytest.raises(ValueError):
        PolyForm(4, 2, {(3, 0): 1.0})  # exponent sum != degree


def test_polyform_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    f = PolyForm(5, 3, {(5, 0, 0): 1.3, (2, 2, 1): -0.7 + 0.2j,
                        (1, 1, 3): 2.0, (0, 4, 1): 0.5j})
    h = 1e-6
    for _ in range(10):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = f.gradient(x)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (f(x + e) - f(x - e)) / (2 * h)
            assert abs(g[j] - fd) <= 1e-6 * (1 + abs(g[j]))


def test_apply_power_homogeneity():
    rng = np.random.default_rng(5)
    for m, n in [(3, 2), (4, 3), (2, 4)]:
        arr = rng.standard_normal((n,) * m) + 1j * rng.standard_normal((n,) * m)
        A = Tensor(m, n, arr)
        for _ in range(5):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            t = complex(rng.standard_normal() + 1j * rng.standard_normal())
            lhs = apply_power(A, t * x)
            rhs = t ** (m - 1) * apply_power(A, x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_euler_identity_symmetric():
    # x . (grad f)(x) = m f(x) for the form attached to a symmetric tensor
    rng = np.random.default_rng(21)
    for m, n in [(3, 2), (4, 2), (3, 3)]:
        A = sym_tensor(m, n, rng)
        f = form_from_tensor(A)
        for _ in range(10):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = complex(np.dot(x, apply_power(A, x)))
            rhs = m * f(x)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))
            assert abs(scalar_form(A, x) - rhs) <= 1e-10 * (1 + abs(rhs))


def test_form_tensor_roundtrip():
    f = PolyForm(6, 3, {(4, 2, 0): 1.0, (2, 4, 0): 1.0, (2, 2, 2): -3.0,
                        (0, 0, 6): 1.0})
    A = tensor_from_form(f)
    assert A.is_symmetric
    g = form_from_tensor(A)
    assert set(g.terms) == set(f.terms)
    for expo, c in f.terms.items():
        assert g.terms[expo] == pytest.approx(c)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(3)
        assert abs(g(x) - f(x)) <= 1e-12 * (1 + abs(f(x)))

    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 1, 1] = 1.0
    with pytest.raises(ValueError):
        form_from_tensor(Tensor(3, 2, arr))


def test_tensor_from_form_fills_each_index_tuple_once():
    # the same entries, bit for bit, as a fill through every ordering of
    # each term's index multiset, which costs m! per term
    from itertools import permutations
    from math import comb, factorial, prod

    f = PolyForm(6, 3, {(4, 2, 0): 1.0, (2, 2, 2): -3.0j, (1, 0, 5): 0.7,
                        (0, 6, 0): 2.5})
    ref = np.zeros((3,) * 6, dtype=complex)
    for expo, c in f.terms.items():
        base = [v for v, e in enumerate(expo) for _ in range(e)]
        for idx in set(permutations(base)):
            ref[idx] = 6 * c * prod(map(factorial, expo)) / factorial(6)
    assert np.array_equal(tensor_from_form(f).array, ref)
    # a one-term order-13 form has 13! orderings but 1716 index tuples
    start = time.perf_counter()
    A = tensor_from_form(PolyForm(13, 2, {(6, 7): 1.0}))
    assert time.perf_counter() - start < 5.0
    entry = 13 * factorial(6) * factorial(7) / factorial(13)
    assert np.count_nonzero(A.array) == comb(13, 6)
    assert np.all(A.array[A.array != 0] == entry)


def test_gradient_consistency_with_tensor():
    # apply_power of the attached tensor is exactly the form's gradient
    rng = np.random.default_rng(17)
    f = PolyForm(4, 3, {(4, 0, 0): 1.0, (2, 1, 1): -2.0, (0, 2, 2): 0.5,
                        (1, 3, 0): 1.0j})
    A = tensor_from_form(f)
    for _ in range(10):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.max(np.abs(apply_power(A, x) - f.gradient(x))) <= 1e-10 * (
            1 + np.max(np.abs(f.gradient(x))))


def test_canonicalize_m3_scales_lambda_to_one():
    p = EigenPair(2.0, np.array([2.0, 2.0]))
    c = canonicalize(p, 3)
    assert c.lam == pytest.approx(1.0)
    assert np.allclose(c.x, [1.0, 1.0])


def test_canonicalize_idempotent_and_orbit_constant():
    rng = np.random.default_rng(29)
    for m in (2, 3, 4, 5):
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
            p = EigenPair(lam, x)
            c = canonicalize(p, m)
            cc = canonicalize(c, m)
            assert abs(cc.lam - c.lam) <= 1e-10
            assert np.max(np.abs(cc.x - c.x)) <= 1e-10
            t = complex(rng.standard_normal() + 1j * rng.standard_normal())
            if abs(t) < 0.1:
                t += 1.0
            q = EigenPair(t ** (m - 2) * lam if m >= 3 else lam, t * x) \
                if m >= 3 else EigenPair(lam, t * x)
            cq = canonicalize(q, m)
            assert abs(cq.lam - c.lam) <= 1e-9 * (1 + abs(c.lam))
            assert np.max(np.abs(cq.x - c.x)) <= 1e-9 * (1 + np.max(np.abs(c.x)))


def test_equivalent_examples():
    assert equivalent(EigenPair(1.0, np.array([1.0, 1.0])),
                      EigenPair(2.0, np.array([2.0, 2.0])), 3)
    assert equivalent(EigenPair(1.0, np.array([1.0, 0.0])),
                      EigenPair(1.0, np.array([-1.0, 0.0])), 4)
    assert not equivalent(EigenPair(1.0, np.array([1.0, 0.0])),
                          EigenPair(1.0, np.array([0.0, 1.0])), 3)


def test_equivalent_random_orbits_and_non_orbits():
    rng = np.random.default_rng(31)
    for m in (3, 4, 6):
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = complex(1.0 + rng.random() + 1j * rng.standard_normal())
            t = complex(rng.standard_normal() + 1j * rng.standard_normal())
            if abs(t) < 0.1:
                t += 1.0
            p = EigenPair(lam, x)
            q = EigenPair(t ** (m - 2) * lam, t * x)
            assert equivalent(p, q, m)
            # unrelated direction: not equivalent
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            r = EigenPair(lam, y)
            assert not equivalent(p, r, m)


def test_normalized_eigenvalues_signs_and_isotropy():
    # odd m reports both signs, even m exactly one value
    vals3 = normalized_eigenvalues(EigenPair(1.0, np.array([1.0, 1.0])), 3)
    assert len(vals3) == 2
    assert vals3[0] == pytest.approx(-vals3[1])
    assert min(abs(v - 2 ** -0.5) for v in vals3) < 1e-12

    vals4 = normalized_eigenvalues(EigenPair(1.0, np.array([1.0, 0.0])), 4)
    assert vals4 == (pytest.approx(1.0),)

    # isotropic vector: x.x = 0, no rescaling exists
    assert normalized_eigenvalues(EigenPair(1.0, np.array([1.0, 1.0j])), 3) == ()


def test_normalized_eigenvalues_scale_invariant():
    rng = np.random.default_rng(37)
    for m in (3, 4, 5):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
        t = 0.5 + rng.random() + 1j * rng.standard_normal()
        a = normalized_eigenvalues(EigenPair(lam, x), m)
        b = normalized_eigenvalues(EigenPair(t ** (m - 2) * lam, t * x), m)
        assert len(a) == len(b)
        for v in a:
            assert min(abs(v - w) for w in b) < 1e-9 * (1 + abs(v))


def test_eigenpair_validation():
    with pytest.raises(ValueError):
        EigenPair(1.0, np.zeros(3))
    with pytest.raises(ValueError):
        EigenPair(1.0, np.zeros((2, 2)))
    p = EigenPair(1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        p.x[0] = 5.0  # frozen


def test_projpoint_canonical_representative():
    p = ProjPoint([2.0j, 0.0])
    assert np.allclose(p.coords, [1.0, 0.0])
    q = ProjPoint([1.0 + 1.0j, 2.0 - 1.0j])
    s = (0.3 - 1.7j) * np.array([1.0 + 1.0j, 2.0 - 1.0j])
    r = ProjPoint(s)
    assert q.distance(r) < 1e-12
    assert abs(np.linalg.norm(q.coords) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ProjPoint([0.0, 0.0])
    with pytest.raises(ValueError):
        q.distance(ProjPoint([1.0, 0.0, 0.0]))
