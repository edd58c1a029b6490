"""Truncated jet arithmetic against an independent symbolic oracle.

Every rule the geometry relies on (product, reciprocal, square root,
partial derivatives, Gram-Schmidt in jet arithmetic) is compared with
sympy derivatives of the same closed-form expressions, and with central
finite differences as a second, oracle-free route.
"""

import numpy as np
import pytest
import sympy as sp

from isopedal import jets
from isopedal.errors import DegenerateJet
from isopedal.geometry import FRAME_EPS
from isopedal.jets import Jet, JetVec, jet_gram_schmidt, jet_lift
from isopedal.weierstrass import IsotropicSpec, holomorphic_curve, preset_curve, w_generate
from oracles import alternating_recip, coordinate, deriv, horner_sqrt

X, Y = sp.symbols("x y", real=True)


def sym_derivs(expr, x0, y0, order):
    """Table of d^{i+j} expr / dx^i dy^j at (x0, y0), i + j <= order."""
    out = {}
    for i in range(order + 1):
        for j in range(order + 1 - i):
            d = sp.diff(expr, X, i, Y, j)
            out[(i, j)] = complex(d.subs({X: x0, Y: y0}))
    return out


def build_jet(expr_fn, x0, y0, order):
    x = coordinate(np.asarray(x0), 0, order)
    y = coordinate(np.asarray(y0), 1, order)
    return expr_fn(x, y)


def compare(jet, expr, x0, y0, rtol=1e-12):
    table = sym_derivs(expr, x0, y0, jet.order)
    scale = max(max(abs(v) for v in table.values()), 1.0)
    for (i, j), want in table.items():
        got = complex(deriv(jet, i, j))
        assert abs(got - want) <= rtol * scale, (i, j, got, want)


def test_polynomial_jet_derivatives():
    x0, y0 = 0.7, -0.4
    jet = build_jet(lambda x, y: x * x * y + x.scale(3.0) - y * y * y, x0, y0, 4)
    compare(jet, X**2 * Y + 3 * X - Y**3, x0, y0)


def test_recip_jet_derivatives():
    x0, y0 = 0.5, 0.8
    jet = build_jet(
        lambda x, y: (x * x + y * y).add_const(1.0).recip(), x0, y0, 5
    )
    compare(jet, 1 / (1 + X**2 + Y**2), x0, y0)


def test_sqrt_jet_derivatives():
    x0, y0 = 1.1, -0.3
    jet = build_jet(
        lambda x, y: (x * x + y * y).add_const(2.0).sqrt(), x0, y0, 5
    )
    compare(jet, sp.sqrt(2 + X**2 + Y**2), x0, y0)


def test_composite_rational_jet():
    x0, y0 = 0.9, 0.2
    jet = build_jet(
        lambda x, y: (x * y).add_const(1.0) * (x * x + y.scale(2.0)).add_const(3.0).recip(),
        x0, y0, 4,
    )
    compare(jet, (1 + X * Y) / (3 + X**2 + 2 * Y), x0, y0)


def test_dx_dy_drop_one_order():
    x = coordinate(np.asarray(0.3), 0, 4)
    assert x.order == 4
    assert x.dx().order == 3
    assert x.dx().dy().order == 2


def test_wirtinger_of_holomorphic_lift_kills_zbar():
    # for jets of a holomorphic function, (d/dx + i d/dy) f = 0
    phi = [[0, 1, 0.5j, 2]]  # z + 0.5i z^2 + 2 z^3
    lifted = jet_lift(phi, np.asarray(0.4), np.asarray(0.7), 4)[0]
    anti = lifted.dx() + lifted.dy().scale(1j)
    assert np.max(np.abs(anti.c)) < 1e-12


def test_jet_lift_matches_symbolic_curve():
    z = X + sp.I * Y
    expr = (z**3 - 2 * z).expand()
    lifted = jet_lift([[0, -2, 0, 1]], np.asarray(0.6), np.asarray(-0.2), 4)[0]
    compare(lifted, expr, 0.6, -0.2)


def product_lift(curve, x, y, order):
    """Reference lift: Horner's rule with jet products by the jet of z."""
    batch = np.broadcast_shapes(x.shape, y.shape)
    Z = Jet.const(x + 1j * y, order, batch)
    Z.t[jets._at(order + 1, 1, 0)], Z.t[jets._at(order + 1, 0, 1)] = 1.0, 1j
    tables = []
    for p in curve:
        acc = Jet.const(np.full(batch, p[-1], dtype=complex), order)
        for c in reversed(p[:-1]):
            acc = acc * Z
            acc.t[0] += c
        tables.append(acc.t)
    return np.stack(tables, axis=1)


R5_SPEC = IsotropicSpec(ambient_dim=5, isotropy_order=1, alpha0=[[1, 0, 0.5]], betas=[[1], [0, 1]])


@pytest.mark.parametrize("curve", ["holo3", "holo4", "noniso", "r5"])
def test_lift_is_bitwise_the_product_horner_lift(curve):
    phi = (w_generate(R5_SPEC) if curve == "r5" else preset_curve(curve)).phi
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-1.3, 1.3, (2, 9))
    x[0] = 0.0  # a point whose tables hold exact zeros
    for order in range(2, 7):
        got = jet_lift(phi, x, y, order).t
        want = product_lift(phi, x, y, order)
        assert np.array_equal(got, want), order
        assert got.tobytes() == want.tobytes(), order  # zero signs too


def test_lift_makes_no_jet_product(monkeypatch):
    calls = []
    product = jets._product
    monkeypatch.setattr(jets, "_product",
                        lambda a, b, lead: calls.append(lead) or product(a, b, lead))
    x, y = np.linspace(0.3, 1.3, 4), np.full(4, 0.7)
    jet_lift(preset_curve("holo4").phi, x, y, 5)
    assert calls == []
    coordinate(x, 0, 3) * coordinate(y, 1, 3)  # the spy sees products
    assert calls == [1]


def test_lift_of_an_empty_component_is_zero():
    # w = (z, z^2, 0): the doubled curve's last two components are empty
    phi = holomorphic_curve([[0, 1], [0, 0, 1], [0]]).phi
    assert phi[4:] == [[], []]
    x, y = np.linspace(0.3, 1.3, 4), np.full(4, 0.7)
    t = jet_lift(phi, x, y, 4).t
    assert t.shape == (15, 6, 4)
    assert not np.any(t[:, 4:])
    assert np.array_equal(t[:, :4], product_lift(phi[:4], x, y, 4))


def test_recip_raises_on_degenerate_without_guard():
    x = coordinate(np.asarray(0.0), 0, 3)
    with pytest.raises(DegenerateJet):
        x.recip()


def test_recip_guard_masks_bad_lanes():
    vals = np.array([0.0, 2.0])
    x = coordinate(vals, 0, 3)
    guard = vals != 0.0
    r = x.recip(guard=guard)
    assert abs(r.value()[1] - 0.5) < 1e-14
    assert np.all(np.isfinite(r.c))  # junk but finite in the masked lane


def test_sqrt_rejects_negative_values():
    x = coordinate(np.asarray(-1.0), 0, 3)
    with pytest.raises(DegenerateJet):
        x.sqrt()


def test_batched_matches_scalar_loop():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.3, 1.3, size=7)
    ys = rng.uniform(0.3, 1.3, size=7)

    def expr(x, y):
        return (x * x * y).add_const(1.5).recip() * (x + y)

    batch = expr(coordinate(xs, 0, 3), coordinate(ys, 1, 3))
    for k in range(7):
        single = expr(
            coordinate(np.asarray(xs[k]), 0, 3),
            coordinate(np.asarray(ys[k]), 1, 3),
        )
        assert np.max(np.abs(batch.c[k] - single.c)) < 1e-14


def square_block_mul(ac, bc):
    """Reference product on (*batch, D, D) tables: each coefficient (i, j)
    of the right factor adds a whole shifted square block, and the result
    is masked to the triangle at the end."""
    D = min(ac.shape[-1], bc.shape[-1])
    tri = np.add.outer(np.arange(D), np.arange(D)) < D
    if ac.shape[-1] > D:
        ac = ac[..., :D, :D] * tri
    if bc.shape[-1] > D:
        bc = bc[..., :D, :D] * tri
    out = np.zeros(np.broadcast_shapes(ac.shape[:-2], bc.shape[:-2]) + (D, D), dtype=complex)
    for i in range(D):
        for j in range(D - i):
            out[..., i:, j:] += ac[..., : D - i, : D - j] * bc[..., i : i + 1, j : j + 1]
    out *= tri
    return out


@pytest.mark.parametrize("order", range(2, 7))
def test_product_is_bitwise_the_square_block_product(order):
    rng = np.random.default_rng(100 + order)

    def table(batch, k):
        D = k + 1
        tri = np.add.outer(np.arange(D), np.arange(D)) < D
        shape = batch + (D, D)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * tri

    cases = [((), (), order), ((1,), (1,), order), ((7,), (7,), order),
             ((3, 4), (3, 4), order), ((), (5,), order), ((5,), (), order),
             ((7,), (7,), order + 1), ((3, 4), (4,), order - 1)]
    for batch_a, batch_b, order_b in cases:
        ac, bc = table(batch_a, order), table(batch_b, order_b)
        got = (Jet(ac) * Jet(bc)).c
        want = square_block_mul(ac, bc)
        assert got.shape == want.shape
        assert np.array_equal(got, want), (batch_a, batch_b, order_b)
        for c in (ac, bc):
            back = Jet(c).c
            assert back.shape == c.shape and np.array_equal(back, c)


def test_jetvec_dot_is_bilinear():
    order = 3
    i_jet = Jet.const(np.asarray(1j), order)
    v = JetVec([i_jet])
    assert abs(v.dot(v).value() + 1.0) < 1e-15  # (i) . (i) = -1, no conjugation


def test_project_off_removes_components():
    rng = np.random.default_rng(12)
    x0 = np.asarray(rng.uniform(0.3, 1.3, size=4))
    y0 = np.asarray(rng.uniform(0.3, 1.3, size=4))
    x = coordinate(x0, 0, 3)
    y = coordinate(y0, 1, 3)
    u = JetVec([x, y, x * y])
    frames, _, ok = jet_gram_schmidt([u], guard=np.ones(x0.shape, dtype=bool), eps=FRAME_EPS)
    assert np.all(ok)
    w = JetVec([y, x, (x + y)])
    res = w.project_off(frames)
    # the residual is orthogonal to the frame at every point
    ip = res.dot(frames[0]).value()
    assert np.max(np.abs(ip)) < 1e-12


def test_gram_schmidt_orthonormal_in_jets():
    x0 = np.asarray([0.5, 0.9])
    y0 = np.asarray([0.7, 0.4])
    x = coordinate(x0, 0, 3)
    y = coordinate(y0, 1, 3)
    vecs = [
        JetVec([x, y, x * y]),
        JetVec([y, x * x, x + y]),
    ]
    frames, _, ok = jet_gram_schmidt(vecs, guard=np.ones(x0.shape, dtype=bool), eps=FRAME_EPS)
    assert np.all(ok)
    for a in range(2):
        for b in range(2):
            ip = frames[a].dot(frames[b])
            want = 1.0 if a == b else 0.0
            # orthonormal as jets: all derivative coefficients of <ea, eb>
            # match the constant
            diff = ip.c.copy()
            diff[..., 0, 0] -= want
            assert np.max(np.abs(diff)) < 1e-12


def test_jet_derivatives_match_central_differences():
    """First and second partials vs central finite differences (hygiene)."""
    rng = np.random.default_rng(13)

    def expr(x, y):
        return ((x * x + y * y).add_const(1.0)).sqrt() * (x * y).add_const(0.5).recip()

    def value(xv, yv):
        return expr(
            coordinate(np.asarray(xv), 0, 2),
            coordinate(np.asarray(yv), 1, 2),
        ).value().real

    h = 1e-4
    for _ in range(25):
        x0 = float(rng.uniform(0.4, 1.2))
        y0 = float(rng.uniform(0.4, 1.2))
        jet = expr(coordinate(np.asarray(x0), 0, 2), coordinate(np.asarray(y0), 1, 2))
        fd_x = (value(x0 + h, y0) - value(x0 - h, y0)) / (2 * h)
        fd_y = (value(x0, y0 + h) - value(x0, y0 - h)) / (2 * h)
        fd_xx = (value(x0 + h, y0) - 2 * value(x0, y0) + value(x0 - h, y0)) / h**2
        scale = max(1.0, abs(fd_x), abs(fd_y), abs(fd_xx))
        assert abs(deriv(jet, 1, 0).real - fd_x) < 1e-6 * scale
        assert abs(deriv(jet, 0, 1).real - fd_y) < 1e-6 * scale
        assert abs(deriv(jet, 2, 0).real - fd_xx) < 1e-5 * scale


# -- the stacked JetVec layout ------------------------------------------------

STACK_BATCHES = [(), (1,), (7,), (3, 4)]


def random_tables(rng, n, batch, order, complex_=False):
    """n random (*batch, D, D) tables of order `order`, zero off the triangle."""
    D = order + 1
    tri = np.add.outer(np.arange(D), np.arange(D)) < D
    shape = (n,) + batch + (D, D)
    t = rng.standard_normal(shape)
    if complex_:
        t = t + 1j * rng.standard_normal(shape)
    return [c * tri for c in t]


def ordered_dot(us, vs):
    """sum_k u_k v_k from the reference product, summed in component order."""
    acc = square_block_mul(us[0], vs[0])
    for a, b in zip(us[1:], vs[1:]):
        acc = acc + square_block_mul(a, b)
    return acc


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [3, 8, 9])
@pytest.mark.parametrize("batch", STACK_BATCHES, ids=str)
def test_stacked_vector_ops_are_bitwise_the_per_component_products(batch, n, complex_):
    # n >= 8 with the component axis innermost (batch () or a trailing 1)
    # is where numpy's pairwise reduction would sum the terms out of order
    rng = np.random.default_rng(1000 + 10 * n + len(batch))
    order = 4
    us, vs, es = (random_tables(rng, n, batch, order, complex_) for _ in range(3))
    s = random_tables(rng, 1, batch, order, complex_)[0]
    u, v, e = (JetVec([Jet(c) for c in cs]) for cs in (us, vs, es))
    assert u.t.shape == ((order + 1) * (order + 2) // 2, n) + batch

    assert np.array_equal(u.dot(v).c, ordered_dot(us, vs))

    scaled = u.scale(Jet(s))
    for k in range(n):
        assert np.array_equal(scaled[k].c, square_block_mul(us[k], s)), k

    # project_off: v - e <v, e>, component by component
    d = ordered_dot(vs, es)
    want = [vk - square_block_mul(ek, d) for vk, ek in zip(vs, es)]
    got = v.project_off([e])
    for k in range(n):
        assert np.array_equal(got[k].c, want[k]), k


def test_real_recip_and_sqrt_are_the_real_part_of_the_complex_path():
    rng = np.random.default_rng(21)
    for batch in STACK_BATCHES:
        c = random_tables(rng, 1, batch, 5)[0]
        c[..., 0, 0] = 1.0 + np.abs(c[..., 0, 0])
        real, cplx = Jet(c), Jet(c + 0j)
        assert real.t.dtype == np.float64 and cplx.t.dtype == np.complex128
        for op in ("recip", "sqrt"):
            got, want = getattr(real, op)(), getattr(cplx, op)()
            assert got.t.dtype == np.float64
            assert np.array_equal(got.c, want.c.real), (op, batch)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_recip_and_sqrt_are_bitwise_the_horner_loops(complex_):
    rng = np.random.default_rng(31 + complex_)
    for order in range(2, 7):
        c = random_tables(rng, 1, (9,), order, complex_)[0]
        c[:, 0, 0] = 1.0 + np.abs(c[:, 0, 0])  # positive real values
        c[0, 1:] = c[0, :, 1:] = 0.0  # a constant
        c[1, :, 1:] = 0.0  # depends on x alone: exact zeros inside the triangle
        bad = c.copy()
        bad[2, 0, 0], bad[3, 0, 0] = -1.0, 0.0  # no sqrt; no sqrt, no recip
        guard = np.arange(9) != 4
        for a, g in ((Jet(c), None), (Jet(c), guard), (Jet(bad), guard)):
            got, want = a.sqrt(guard=g).t, horner_sqrt(a, g).t
            assert got.tobytes() == want.tobytes(), order  # zero signs too
            got, want = a.recip(guard=g).t, alternating_recip(a, g).t
            # the alternating loop ends on a negated product, so its exact
            # zeros are -0.0 where the series leaves +0.0; adding 0.0 maps
            # both to +0.0 and leaves every other bit
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), order


def test_table_dtype_follows_the_inputs():
    from isopedal.geometry import SurfaceJets
    from isopedal.moebius import invert_evaluator
    from isopedal.pedal import pedal_split
    from isopedal.weierstrass import preset_curve, surface_evaluator

    curve = preset_curve("holo3")
    x, y = np.meshgrid(np.linspace(0.3, 1.3, 3), np.linspace(0.3, 1.3, 3))
    assert jet_lift(curve.phi, x, y, 4).t.dtype == np.complex128
    assert Jet.const(2.0, 3).t.dtype == np.float64
    assert Jet.const(2j, 3).t.dtype == np.complex128
    assert Jet.zeros(3).t.dtype == np.float64
    assert coordinate(np.asarray(0.5), 0, 3).scale(2.0).add_const(1.0).t.dtype == np.float64

    surface = surface_evaluator(curve)
    bundle = SurfaceJets(surface, x, y, 4)
    pb = pedal_split(bundle)
    inverted = invert_evaluator(surface, (2.0,) * 6)
    frames = [fr for lev in bundle.flag(bundle.flag_capacity()) for fr in lev.frames]
    real = [bundle.f, bundle.e1, bundle.e2, *frames, pb.foot, inverted.jets(x, y, 3)]
    for jv in real:
        assert jv.t.dtype == np.float64
    assert pb.tangent_part.dtype == pb.first_normal_part.dtype == np.float64
    assert bundle.f.wirtinger().t.dtype == np.complex128
    assert bundle.f.wirtinger().real().t.dtype == np.float64


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_dot_value_is_bitwise_the_order_zero_pairing(monkeypatch, complex_):
    rng = np.random.default_rng(41 + complex_)
    cases = [(1, (), ()), (3, (7,), (7,)), (8, (3, 4), (4,)), (9, (), (5,))]
    for n, batch_a, batch_b in cases:
        u, v = (JetVec([Jet(c) for c in random_tables(rng, n, batch, 3, complex_)])
                for batch in (batch_a, batch_b))
        a, b = u.value(), v.value()
        a[0] = -0.0  # products that are -0.0, alone and in sums
        b[-1] = -np.abs(b[-1])
        if n > 1:
            a[1].flat[:1] = np.nan
            a[-1].flat[-1:] = -0.0
        want = u.truncate(0).dot(v.truncate(0)).value()
        calls = []
        product = jets._product
        monkeypatch.setattr(jets, "_product",
                            lambda a, b, lead: calls.append(lead) or product(a, b, lead))
        got = u.dot_value(v)
        monkeypatch.setattr(jets, "_product", product)
        assert calls == []
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (n, batch_a, batch_b)  # zero signs and NaNs too


def _cached_tables(obj, seen):
    """Every jet a pipeline object holds, through its containers."""
    from isopedal.geometry import FlagLevel, SurfaceJets
    from isopedal.pedal import PedalBundle

    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (Jet, JetVec)):
        yield obj
        return
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, (SurfaceJets, PedalBundle, FlagLevel)):
        items = vars(obj).values()
    else:
        return
    for item in items:
        yield from _cached_tables(item, seen)


def test_every_cached_table_of_a_default_run_is_packed():
    from isopedal import verify
    from isopedal.config import RunConfig
    from isopedal.grid import Grid

    run = verify.Run(RunConfig(curve=preset_curve("holo3"), grid=Grid(nx=5, ny=5)))
    for group in dict.fromkeys(c.group for c in verify.CHECKS):
        getattr(verify, group)(run)
    pipe = run.surface
    assert (pipe.base.order, pipe.pedal.order) == (4, 3)
    assert len(pipe.base._partials) > 3 and pipe.base._levels
    found = 0
    for part in (pipe.base, pipe.split, pipe.pedal):
        for jet in _cached_tables(part, set()):
            T = (jet.order + 1) * (jet.order + 2) // 2
            comps = (len(jet),) if isinstance(jet, JetVec) else ()
            assert jet.t.shape == (T,) + comps + pipe.base.batch
            assert np.shares_memory(jet.value(), jet.t)
            found += 1
    assert found > 40
    assert pipe.base.f.t.shape[0] == 15  # order 4
    assert pipe.split.foot.t.shape[0] == pipe.pedal.f.t.shape[0] == 10  # order 3
