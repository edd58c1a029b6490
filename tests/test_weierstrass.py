"""Recursive generator of m-isotropic curves vs a symbolic oracle.

The recursion is rebuilt independently in sympy (exact symbolic
integration and expansion) and both routes are compared at sample
points.  Isotropy of the derivative curve — the bilinear square being
the zero polynomial — is the property everything downstream depends on,
so it is exercised on the shipped presets and on randomly drawn inputs.
"""

import numpy as np
import pytest
import sympy as sp

from isopedal.cpoly import cv_dot, cv_eval, cp_max_abs
from isopedal.errors import ConfigError, IsotropyViolation
from isopedal.weierstrass import (
    IsotropicSpec,
    ambient_curve,
    holomorphic_curve,
    preset_curve,
    sample_spec,
    surface_evaluator,
    w_generate,
    w_step,
)

Z = sp.symbols("z")


def poly_expr(coeffs):
    return sum(sp.nsimplify(c, rational=False) * Z**k for k, c in enumerate(coeffs))


def sym_generate(alpha0, betas):
    """The recursion in sympy: integrate, square, append the new pair."""
    alpha = [poly_expr(p) for p in alpha0]
    for b in betas:
        phi = [sp.integrate(a, Z) for a in alpha]
        square = sum(p * p for p in phi)
        bx = poly_expr(b)
        alpha = [bx * (1 - square), sp.I * bx * (1 + square)]
        alpha += [2 * bx * p for p in phi]
    return [sp.expand(sp.integrate(a, Z)) for a in alpha]


def eval_sym(exprs, zv):
    return np.array([complex(e.subs(Z, zv)) for e in exprs])


def test_recursion_matches_symbolic_oracle_empty_seed():
    spec = IsotropicSpec(ambient_dim=6, isotropy_order=2, alpha0=[], betas=[[1], [1], [1]])
    curve = w_generate(spec)
    oracle = sym_generate([], [[1], [1], [1]])
    assert len(oracle) == 6
    for zv in (0.3 + 0.4j, 1.0, -0.7 + 0.2j):
        got = np.array(cv_eval(curve.phi, zv))
        want = eval_sym(oracle, zv)
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_recursion_matches_symbolic_oracle_with_seed_and_weights():
    alpha0 = [[1], [0, 1]]
    betas = [[1, 0.5], [2]]
    spec = IsotropicSpec(ambient_dim=6, isotropy_order=1, alpha0=alpha0, betas=betas)
    curve = w_generate(spec)
    oracle = sym_generate(alpha0, betas)
    for zv in (0.5 - 0.1j, 1.2 + 0.8j):
        got = np.array(cv_eval(curve.phi, zv))
        want = eval_sym(oracle, zv)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_step_appends_pair_first_then_doubled_components():
    # alpha = (1): phi = z, square = z^2; step with beta = 1 gives
    # (1 - z^2, i(1 + z^2), 2z) in that component order
    out = w_step([[1]], [1])
    assert out[0] == [1, 0, -1]
    assert out[1] == [1j, 0, 1j]
    assert out[2] == [0, 2]


def test_shipped_presets_are_isotropic():
    for name, dim, degree in (("holo3", 6, 3), ("holo4", 8, 4), ("noniso", 6, 7)):
        curve = preset_curve(name)
        assert curve.ambient_dim == dim
        assert curve.degree == degree
        assert curve.isotropy_residual() <= 1e-10
        # the defining identity, checked directly on the coefficients
        assert cp_max_abs(cv_dot(curve.alpha, curve.alpha)) <= 1e-10


def test_random_specs_are_isotropic():
    rng = np.random.default_rng(20260826)
    for _ in range(40):
        spec = sample_spec(rng)
        curve = w_generate(spec)
        assert curve.ambient_dim == spec.ambient_dim
        assert curve.isotropy_residual() <= 1e-10


def test_isotropy_holds_for_every_intermediate_level():
    rng = np.random.default_rng(7)
    spec = sample_spec(rng, max_dim=10)
    curve = w_generate(spec)
    # each level after the first recursion step is itself isotropic
    for level in curve.levels[1:]:
        d = [len(p) and p or [0] for p in level]
        alpha = [p[1:] and [c * (k + 1) for k, c in enumerate(p[1:])] or [] for p in level]
        res = cp_max_abs(cv_dot(alpha, alpha))
        scale = max(cp_max_abs(p) for p in alpha) if alpha else 1.0
        assert res <= 1e-10 * max(scale * scale, 1.0)


def test_doubled_curve_is_original_up_to_reflection():
    # doubling w -> (w1, i w1, ...) makes Re(phi) = (Re w1, -Im w1, ...):
    # the holomorphic curve composed with the reflection of even coordinates
    comps = [[0, 1], [0, 0, 1j], [1, 0, 0, 0.5]]
    curve = holomorphic_curve(comps)
    assert curve.ambient_dim == 6
    ev = surface_evaluator(curve)
    x = np.array([0.4, 1.1])
    y = np.array([0.9, -0.3])
    f = ev.jets(x, y, 2).value().real
    w = np.stack([np.array(cv_eval(comps, complex(a, b))) for a, b in zip(x, y)], axis=-1)
    want = np.empty_like(f)
    want[0::2] = w.real
    want[1::2] = -w.imag
    assert np.max(np.abs(f - want)) < 1e-12


def test_spec_validation_rejects_impossible_dimension_count():
    # each recursion step adds exactly two components, so N - 2(m+1) >= 0
    with pytest.raises(ConfigError):
        IsotropicSpec(ambient_dim=5, isotropy_order=2, alpha0=[], betas=[[1], [1], [1]])
    with pytest.raises(ConfigError):
        IsotropicSpec(ambient_dim=6, isotropy_order=2, alpha0=[[1]], betas=[[1], [1], [1]])
    with pytest.raises(ConfigError):
        IsotropicSpec(ambient_dim=6, isotropy_order=2, alpha0=[], betas=[[1], [0], [1]])
    with pytest.raises(ConfigError):
        IsotropicSpec(ambient_dim=6, isotropy_order=2, alpha0=[], betas=[[1], [1]])


def test_odd_dimension_is_supported():
    spec = IsotropicSpec(ambient_dim=5, isotropy_order=1, alpha0=[[1, 0, 0.5]],
                         betas=[[1], [0, 1]])
    curve = w_generate(spec)
    assert curve.ambient_dim == 5
    assert curve.isotropy_residual() <= 1e-10


def test_ambient_curve_round_trips_bitwise():
    curve = preset_curve("holo3")
    again = ambient_curve(curve.phi)
    assert again.phi == curve.phi
    assert again.isotropy_residual() <= 1e-10


def test_ambient_curve_rejects_non_isotropic_input():
    with pytest.raises(IsotropyViolation):
        ambient_curve([[0, 1], [0, 1], [0, 1], [0, 1]])


def test_surface_evaluator_is_real_part_of_curve():
    curve = preset_curve("holo3")
    ev = surface_evaluator(curve)
    x = np.array([0.7])
    y = np.array([0.2])
    got = ev.jets(x, y, 3).value().real[:, 0]
    want = np.array(cv_eval(curve.phi, 0.7 + 0.2j)).real
    assert np.max(np.abs(got - want)) < 1e-13


def test_affine_evaluator_scales_and_translates():
    curve = preset_curve("holo3")
    ev = surface_evaluator(curve)
    v = np.arange(6, dtype=float)
    shifted = ev.affine(scale=-2.0, translation=v)
    x = np.array([0.5, 1.0])
    y = np.array([0.6, 0.9])
    got = shifted.jets(x, y, 2)
    base = ev.jets(x, y, 2)
    diff = got.value().real - (-2.0 * base.value().real + v[:, None])
    assert np.max(np.abs(diff)) < 1e-13
    # derivatives scale without the translation
    ddiff = got.deriv(1, 0).real - (-2.0) * base.deriv(1, 0).real
    assert np.max(np.abs(ddiff)) < 1e-13


def test_evaluated_surface_answers_up_to_its_order_at_its_points():
    ev = surface_evaluator(preset_curve("holo3"))
    x = np.array([0.5, 1.0, 0.8])
    y = np.array([0.6, 0.9, 0.3])
    jets, valid = ev.evaluate(x, y, 3)
    calls = []
    inner = ev.fn
    ev.fn = lambda *args: calls.append(args[2]) or inner(*args)
    frozen = ev.evaluated(x, y, 3)
    assert frozen.provenance == ev.provenance
    for order in (3, 2, 3):
        got, got_valid = frozen.evaluate(x, y, order)
        assert np.array_equal(got_valid, valid)
        for a, b in zip(got, jets.truncate(order)):
            assert np.array_equal(a.t, b.t)
    assert calls == [3]
    # it holds no jets above its order and no jets at other points
    with pytest.raises(ValueError, match="order"):
        frozen.evaluate(x, y, 4)
    with pytest.raises(ValueError, match="points"):
        frozen.evaluate(x + 0.1, y, 2)
