"""Exact complex polynomial layer: coefficient arithmetic and calculus."""

import numpy as np
from numpy.polynomial.polynomial import polyval

from isopedal.cpoly import (
    cp_add,
    cp_degree,
    cp_diff,
    cp_int,
    cp_max_abs,
    cp_mul,
    cp_scale,
    cp_sub,
    cp_trim,
    cv_diff,
    cv_dot,
    cv_int,
    cv_max_abs,
    cv_trim,
)
from oracles import curve_values, cv_linear_map


def rand_poly(rng, deg):
    return list(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))


def test_ring_identities_pointwise():
    rng = np.random.default_rng(2)
    zs = rng.normal(size=5) + 1j * rng.normal(size=5)
    for _ in range(20):
        p = rand_poly(rng, int(rng.integers(0, 5)))
        q = rand_poly(rng, int(rng.integers(0, 5)))
        for z in zs:
            assert abs(polyval(z, cp_add(p, q)) - (polyval(z, p) + polyval(z, q))) < 1e-10
            assert abs(polyval(z, cp_sub(p, q)) - (polyval(z, p) - polyval(z, q))) < 1e-10
            assert abs(polyval(z, cp_mul(p, q)) - polyval(z, p) * polyval(z, q)) < 1e-8
            assert abs(polyval(z, cp_scale(p, 2 - 3j)) - (2 - 3j) * polyval(z, p)) < 1e-10


def test_mul_degree_adds():
    p = [1, 0, 2]          # 1 + 2 z^2
    q = [0, 3]             # 3 z
    assert cp_degree(cp_mul(p, q)) == 3
    assert cp_mul(p, q) == [0, 3, 0, 6]


def test_diff_int_are_inverse():
    rng = np.random.default_rng(3)
    p = rand_poly(rng, 6)
    back = cp_diff(cp_int(p))
    assert cp_degree(back) == cp_degree(p)
    assert max(abs(a - b) for a, b in zip(back, p)) < 1e-14
    # integration always produces zero constant term
    assert cp_int(p)[0] == 0


def test_trim_and_degree():
    assert cp_trim([1, 2, 0, 0]) == [1, 2]
    assert cp_trim([0, 0]) == []
    assert cp_degree([]) == -1
    assert cp_degree([5]) == 0
    assert cp_max_abs([3, -4j]) == 4.0
    assert cv_trim([[0], [1]]) == [[], [1]]
    assert cv_max_abs([[1], [0, 2j]]) == 2.0


def test_cv_dot_is_bilinear_not_hermitian():
    # the pairing has no conjugation: (i) . (i) = -1, not +1
    assert cv_dot([[1j]], [[1j]]) == [complex(-1)]
    rng = np.random.default_rng(4)
    u = [rand_poly(rng, 2), rand_poly(rng, 3)]
    v = [rand_poly(rng, 3), rand_poly(rng, 2)]
    z = 0.7 - 0.2j
    lhs = polyval(z, cv_dot(u, v))
    rhs = sum(polyval(z, p) * polyval(z, q) for p, q in zip(u, v))
    assert abs(lhs - rhs) < 1e-10
    # symmetric in its arguments
    d = cp_sub(cv_dot(u, v), cv_dot(v, u))
    assert cp_max_abs(d) < 1e-14


def test_cv_calculus_componentwise():
    rng = np.random.default_rng(5)
    u = [rand_poly(rng, 3), rand_poly(rng, 1)]
    du = cv_diff(u)
    assert [cp_degree(p) for p in du] == [2, 0]
    iu = cv_int(du)
    z = 0.3 + 0.4j
    # integral of the derivative recovers u up to the constant terms
    for p, q in zip(iu, u):
        got = polyval(z, p) + q[0]
        assert abs(got - polyval(z, q)) < 1e-12


def test_cv_linear_map_matches_matrix_action():
    rng = np.random.default_rng(6)
    u = [rand_poly(rng, 2) for _ in range(3)]
    mat = rng.normal(size=(3, 3))
    w = cv_linear_map(mat, u)
    z = 1.1 - 0.6j
    got = curve_values(w, z)
    want = mat @ curve_values(u, z)
    assert np.max(np.abs(got - want)) < 1e-12
