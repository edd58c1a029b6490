"""Truncated two-variable jets (Taylor tables) with exact arithmetic.

A jet of order d at a base point stores the scaled Taylor coefficients

    c[i, j] = (d^{i+j} u / dx^i dy^j) / (i! j!),   i + j <= d,

so that multiplication of jets is truncated coefficient convolution and
polynomial lifts are exact in floating point up to rounding.  Only the
triangle i + j <= d is stored: T = (d+1)(d+2)/2 coefficients, packed in
row-major order, so that c[i, j] sits at index i(d+1) - i(i-1)/2 + j
and each row i of the triangle is one contiguous run of d+1-i entries.

Jets are batched and every operation is vectorized over the batch axes.
This is how grid evaluation is parallelized - one jet pipeline runs for
all grid points at once.  Tables are stored coefficient-leading, so that
each coefficient c[i, j] is one contiguous block and a product works on
whole row segments of such blocks:

* a `Jet` holds `t` of shape (T, *batch);
* a `JetVec` (the jet of a map into R^n) holds one `t` of shape
  (T, n, *batch), coefficients first, then components, so that a vector
  operation (`dot`, `scale`, `project_off`, ...) is one pass of numpy
  calls over all n components.

The public scalar layout is the square, batch-leading one: `Jet(c)`
takes an array of shape (*batch, d+1, d+1) and packs its triangle, and
`Jet.c` returns a new array of that shape, zero above the triangle.

The table dtype follows the inputs.  Real pipelines (surface jets,
frames, pedals, inversions) carry float64 tables; complex tables occur
only where the mathematics is complex: the holomorphic lift
(`jet_lift`), Wirtinger derivatives (d = (d/dx - i d/dy)/2) and what is
built from them, but not the (2,0) second form, a value array read off
the real frame form.  `.real()` returns float64 tables.  A real table gives
the same bits as the real part of the same computation on complex tables
with zero imaginary parts, with one care: numpy divides complex numbers
as a * (1/b), so real division by a jet's value is written t * (1/b).

Division and square root are one binomial series, (1 + u)^alpha at
alpha = -1 and 1/2, in the normalized remainder u = a/a0 - 1, which is
nilpotent at order d+1, so `order` Horner steps give the exact
truncation.  A degenerate a0 raises `DegenerateJet` unless a `guard`
array is given.  With one, which every grid pipeline passes, an entry
divides if and only if its guard holds, so the guard must imply a usable
a0; the entries it drops hold junk and the caller keeps the mask.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DegenerateJet


def _size(D):
    """T = D(D+1)/2, the coefficients of an order-(D-1) table."""
    return D * (D + 1) // 2


def _side(T):
    """D = d + 1 for a packed table of T = D(D+1)/2 coefficients."""
    return (int((8 * T + 1) ** 0.5) - 1) // 2


def _at(D, i, j):
    """Packed index of coefficient (i, j) of an order-(D-1) table."""
    return i * D - i * (i - 1) // 2 + j


@cache
def _coords(D):
    """(rows, cols): the (i, j) of each packed coefficient of an
    order-(D-1) table, in storage order."""
    k = np.arange(D)
    return np.nonzero(k[:, None] + k[None, :] <= D - 1)


@cache
def _truncation(D, E):
    """Packed indices, in an order-(D-1) table, of the coefficients an
    order-(E-1) table keeps, in its storage order."""
    rows, cols = _coords(D)
    return np.flatnonzero(rows + cols < E)


@cache
def _derivative(D):
    """(x weights, y indices, y weights) of dx and dy on an order-(D-1)
    table.  Coefficient (i, j) of dx is (i+1) c[i+1, j], and the rows
    i+1 >= 1 are the packed tail t[D:]; coefficient (i, j) of dy is
    (j+1) c[i, j+1], gathered from the columns j+1 >= 1."""
    rows, cols = _coords(D)
    iy = np.flatnonzero(cols >= 1)
    return rows[D:].astype(float), iy, cols[iy].astype(float)


@cache
def _mul_plan(Ta, Tb):
    """Schedule of the truncated product of a table of Ta packed
    coefficients (order Da-1) by one of Tb (order Db-1), at order D-1 with
    D = min(Da, Db).

    Returns (D, left segments, output segments, steps).  The steps follow
    the right factor's coefficients (i, j) in the order i, then j; each
    holds that coefficient's packed slice and the row segments it touches
    as index pairs into the two segment lists: row p of the left factor,
    columns 0..n-1, adds onto output row p + i, columns j..j+n-1, with
    n = D - i - j - p so that only the triangle is written.  Every
    segment is one contiguous slice of its packed table, listed once, so
    a product slices each once.
    """
    Da, Db = _side(Ta), _side(Tb)
    D = min(Da, Db)
    left, out, steps = {}, {}, []
    for i in range(D):
        for j in range(D - i):
            pairs = []
            for p in range(D - i - j):
                n = D - i - j - p
                pairs.append((left.setdefault((p, n), len(left)),
                              out.setdefault((p + i, j, n), len(out))))
            k = _at(Db, i, j)
            steps.append((slice(k, k + 1), pairs))
    return (D, [slice(_at(Da, p, 0), _at(Da, p, n)) for p, n in left],
            [slice(_at(D, row, col), _at(D, row, col + n)) for row, col, n in out], steps)


def _fit(t, T, ndim, lead):
    """Table `t` truncated to T packed coefficients, with 1-axes inserted
    after its `lead` leading axes until it has `ndim` axes."""
    if t.shape[0] != T:
        if t.shape[0] < T:
            raise ValueError("cannot raise jet order by truncation")
        t = t[_truncation(_side(t.shape[0]), _side(T))]
    if t.ndim < ndim:
        t = t.reshape(t.shape[:lead] + (1,) * (ndim - t.ndim) + t.shape[lead:])
    return t


def _align(a, b, lead):
    """Tables `a` and `b` at the lower order of the two, with equal rank."""
    if a.shape == b.shape:
        return a, b
    T, ndim = min(a.shape[0], b.shape[0]), max(a.ndim, b.ndim)
    return _fit(a, T, ndim, lead), _fit(b, T, ndim, lead)


def _product(a, b, lead):
    """Truncated Cauchy product of two packed tables, broadcast over the
    axes after the first.

    Each output coefficient receives its terms a[p, q] * b[i, j] in the
    order of (i, j), starting from zero, one row segment of `a` per numpy
    call.  The right factor's coefficient keeps a length-1 axis so that
    both operands of every call have equal rank.  The segments read only
    the lower order's triangle, so a higher-order operand is read in
    place, not truncated first.
    """
    D, left_index, row_index, steps = _mul_plan(a.shape[0], b.shape[0])
    if a.ndim != b.ndim:
        ndim = max(a.ndim, b.ndim)
        a, b = _fit(a, a.shape[0], ndim, lead), _fit(b, b.shape[0], ndim, lead)
    shape = a.shape[1:] if a.shape[1:] == b.shape[1:] else np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros((_size(D),) + shape, dtype=np.result_type(a, b))
    left = [a[k] for k in left_index]
    rows = [out[k] for k in row_index]
    add, mul = np.add, np.multiply
    for bk, pairs in steps:
        bij = b[bk]
        for k, r in pairs:
            o = rows[r]
            add(o, mul(left[k], bij), out=o)
    return out


def _divided(t, s):
    """Table `t` divided by the batch array `s`, rounded as numpy's
    complex division rounds the same values with zero imaginary parts."""
    return t / s if np.iscomplexobj(t) else t * (1.0 / s)


class _Table:
    """Operations shared by `Jet` and `JetVec`: one packed table `t` with
    `_LEAD` axes (coefficients, then components) before the batch axes."""

    __slots__ = ("t",)
    _LEAD = 1

    @classmethod
    def _of(cls, t):
        """The object whose stored table is `t` (no copy)."""
        obj = cls.__new__(cls)
        obj.t = t
        return obj

    @property
    def order(self):
        return _side(self.t.shape[0]) - 1

    @property
    def batch(self):
        return self.t.shape[self._LEAD:]

    def value(self):
        """Order-0 values, shape (*batch) or (n, *batch); a view into the table."""
        return self.t[0]

    def truncate(self, order):
        if order == self.order:
            return self
        return self._of(_fit(self.t, _size(order + 1), 0, 0))

    def scale(self, s):
        """Each coefficient times the number or batch array `s`."""
        s = np.asarray(s)
        return self._of(_fit(self.t, self.t.shape[0], s.ndim + self._LEAD, self._LEAD) * s)

    def __add__(self, other):
        """The sum with a jet of the same kind, at the lower order."""
        a, b = _align(self.t, other.t, self._LEAD)
        return self._of(a + b)

    def __sub__(self, other):
        a, b = _align(self.t, other.t, self._LEAD)
        return self._of(a - b)

    def __neg__(self):
        return self._of(-self.t)

    # -- calculus ----------------------------------------------------------

    def _weights(self, w):
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return w.reshape(w.shape + (1,) * (self.t.ndim - 1))

    def dx(self):
        D = self.order + 1
        return self._of(self.t[D:] * self._weights(_derivative(D)[0]))

    def dy(self):
        _, iy, wy = _derivative(self.order + 1)
        t = self.t[iy]
        t *= self._weights(wy)
        return self._of(t)

    def wirtinger(self):
        """The Wirtinger derivative (d/dx - i d/dy)/2, one order lower."""
        return self._of(0.5 * (self.dx().t - 1j * self.dy().t))

    def real(self):
        return self._of(np.ascontiguousarray(self.t.real))

    def imag(self):
        return self._of(np.ascontiguousarray(self.t.imag))


class Jet(_Table):
    """One truncated Taylor table, batched over trailing axes.

    `t` stores the packed triangle as (T, *batch), each coefficient a
    contiguous plane over the batch; `Jet(c)` and `.c` use the square,
    batch-leading (*batch, d+1, d+1) layout.
    """

    __slots__ = ()

    def __init__(self, c):
        c = np.asarray(c)
        rows, cols = _coords(c.shape[-1])
        self.t = np.ascontiguousarray(np.moveaxis(c, (-2, -1), (0, 1))[rows, cols])

    @property
    def c(self):
        """The table as a new (*batch, d+1, d+1) array, zero above the
        triangle (a copy: writing to it leaves the jet unchanged)."""
        t = self.t
        D = self.order + 1
        rows, cols = _coords(D)
        c = np.zeros(t.shape[1:] + (D, D), dtype=t.dtype)
        c[..., rows, cols] = np.moveaxis(t, 0, -1)
        return c

    # -- constructors (float64 tables unless given complex values) ----------

    @staticmethod
    def const(value, order, batch=()):
        value = np.asarray(value)
        shape = np.broadcast_shapes(value.shape, tuple(batch))
        t = np.zeros((_size(order + 1),) + shape, dtype=np.result_type(value, float))
        t[0] = value
        return Jet._of(t)

    @staticmethod
    def zeros(order, batch=()):
        return Jet._of(np.zeros((_size(order + 1),) + tuple(batch)))

    # -- ring operations -------------------------------------------------

    def __mul__(self, other):
        """Truncated Cauchy product with the jet `other` (see `_product`)."""
        return Jet._of(_product(self.t, other.t, 1))

    def _binomial(self, alpha, degenerate, guard, what):
        """The table of (1 + u)^alpha, u = self/a0 - 1, by Horner's rule on
        the binomial coefficients, and the order-0 values a0 it divided by.

        Without a `guard`, raises DegenerateJet (`what`) where the callable
        `degenerate` marks a0; with one, exactly the entries it drops divide
        by 1 and hold junk."""
        a0 = self.value()
        if guard is None:
            if np.any(degenerate(a0)):
                raise DegenerateJet(f"{what} (order-0 coefficient {a0.flat[:1]})")
        else:
            a0 = np.where(np.asarray(guard, dtype=bool), a0, 1.0)
        u = Jet._of(_divided(self.t, a0))
        u.t[0] = 0.0
        coeffs = [1.0]  # binomial(alpha, k) for k = 0..order
        for k in range(self.order):
            coeffs.append(coeffs[-1] * (alpha - k) / (k + 1))
        acc = Jet.const(np.full(u.batch, coeffs[-1]), self.order)
        for c in reversed(coeffs[:-1]):
            acc = u * acc
            acc.t[0] += c
        return acc.t, a0

    def recip(self, guard=None):
        """Multiplicative inverse as a jet: the series at alpha = -1.

        With `guard=None`, raises DegenerateJet when the order-0
        coefficient vanishes (magnitude at most 1e-12 times the largest
        coefficient's); with a boolean `guard`, which must imply a nonzero
        value, exactly the entries it drops hold junk, for the caller's mask.
        """
        t, a0 = self._binomial(
            -1.0, lambda v: ~(np.abs(v) > 1e-12 * np.max(np.abs(self.t), axis=0)), guard,
            "division by a vanishing jet")
        return Jet._of(_divided(t, a0))

    def sqrt(self, guard=None):
        """Principal square root, the series at alpha = 1/2; the order-0
        coefficient must be a positive real (`guard` as for `recip`, and
        implying one)."""
        t, a0 = self._binomial(
            0.5, lambda v: ~((v.real > 0) & (np.abs(v.imag) <= 1e-9 * np.abs(v) + 1e-300)),
            guard, "square root needs a positive real value")
        return Jet._of(t * np.sqrt(a0))


class JetVec(_Table):
    """The jet of a vector map: n jets sharing order and batch, stored as
    one packed table `t` of shape (T, n, *batch)."""

    __slots__ = ()
    _LEAD = 2

    def __init__(self, comps):
        """Stack jets of one order and batch shape."""
        self.t = np.stack([c.t for c in comps], axis=1)

    @staticmethod
    def const(vec, order, batch=()):
        """The constant map with value `vec` (n entries) over the batch."""
        vec = np.asarray(vec)
        t = np.zeros((_size(order + 1),) + vec.shape + tuple(batch),
                     dtype=np.result_type(vec, float))
        t[0] = vec.reshape(vec.shape + (1,) * len(batch))
        return JetVec._of(t)

    def __len__(self):
        return self.t.shape[1]

    def __getitem__(self, k):
        return Jet._of(self.t[:, k])

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def scale(self, s):
        """Each component times the jet `s` (a truncated product with
        the component on the left), or times a number or batch array."""
        if isinstance(s, Jet):
            return JetVec._of(_product(self.t, s.t[:, None], 2))
        return super().scale(s)

    def dot(self, other):
        """Bilinear pairing sum_k u_k v_k (no conjugation).

        The component products are summed in component order, one slice
        at a time (a reduction along the component axis may pair the
        terms differently).
        """
        if len(self) != len(other):
            raise ValueError(f"component mismatch: {len(self)} vs {len(other)}")
        p = _product(self.t, other.t, 2)
        acc = p[:, 0]
        for k in range(1, len(self)):
            acc = acc + p[:, k]
        return Jet._of(acc)

    def norm_sq(self):
        return self.dot(self)

    def dot_value(self, other):
        """Order-0 values of `dot(other)`, shape (*batch), bitwise (see
        `dot_values`)."""
        if len(self) != len(other):
            raise ValueError(f"component mismatch: {len(self)} vs {len(other)}")
        return dot_values(self.value(), other.value())

    def translate(self, vec):
        """Add a constant ambient vector (one entry per component).

        On a stack of maps, whose leading batch axis of length k holds k
        samples, vectors of shape (n, k) translate sample i by column i.
        """
        vec = np.asarray(vec)
        if vec.shape[:1] != (len(self),) or vec.shape[1:] != self.batch[:vec.ndim - 1]:
            raise ValueError("translation dimension mismatch")
        t = self.t.astype(np.result_type(self.t, vec))
        t[0] += vec.reshape(vec.shape + (1,) * (len(self.batch) + 1 - vec.ndim))
        return JetVec._of(t)

    def project_off(self, frames):
        """Subtract components along jet-orthonormal `frames`."""
        v = self
        for e in frames:
            v = v - e.scale(v.dot(e))
        return v


# -- public operations -------------------------------------------------------


def dot_values(a, b):
    """sum_k a[k] b[k] over the leading (component) axis of two value
    arrays, in component order, plus 0.0: bitwise the order-0 value of the
    jet pairing `JetVec.dot`, whose products write that entry as 0 + a_k b_k,
    turning a zero sum positive as the final 0.0 does."""
    acc = a[0] * b[0]
    for k in range(1, len(a)):
        acc = acc + a[k] * b[k]
    return acc + 0.0


def reject_values(v, frames):
    """Order-0 values of `JetVec.project_off`, bitwise: the value array `v`
    (n, ...) minus its components along the value arrays `frames`, each
    written 0 + e <v, e> as a jet product writes it."""
    for e in frames:
        v = v - (e * dot_values(v, e) + 0.0)
    return v


def jet_lift(curve, x, y, order):
    """Lift a holomorphic polynomial curve to complex jets at z = x + iy.

    Returns one complex jet per curve component: the full Taylor table of
    w_k(x + iy) in the real variables, exact for polynomials.  The real
    surface jet (component-wise real part) is `jet_lift(...).real()`.
    """
    if order < 2:
        raise ValueError("surface work needs jets of order >= 2")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    batch = np.broadcast_shapes(x.shape, y.shape)
    D = order + 1
    z0 = x + 1j * y
    # the y step adds c[i, j-1] onto c[i, j] for j >= 1; the x step adds
    # c[i-1, j] onto the rows i >= 1, the packed tail, from the order-(d-1)
    # triangle in its storage order
    y_to = _derivative(D)[1]
    y_from, x_from = y_to - 1, _truncation(D, D - 1)
    comps = []
    for p in curve:
        if not p:
            comps.append(Jet.zeros(order, batch))
            continue
        acc = np.zeros((_size(D),) + batch, dtype=complex)
        acc[0] = p[-1]
        for c in reversed(p[:-1]):
            # acc * (z0 + dx + i dy): the terms a product with the jet of z
            # adds, in its order (the value, then the y step, then the x
            # step); adding 0.0 first turns negative zeros positive, as a
            # product's zeroed accumulator does
            nxt = acc * z0
            nxt += 0.0
            nxt[y_to] += acc[y_from] * 1j
            nxt[D:] += acc[x_from]
            nxt[0] += c
            acc = nxt
        comps.append(Jet._of(acc))
    return JetVec(comps)


def jet_gram_schmidt(vectors, guard, eps):
    """Classical Gram-Schmidt on jet vectors, in jet arithmetic.

    Returns `(frames, invs, ok)`: orthonormal jet frames spanning the same
    flag of subspaces (orthonormality holds as a jet identity through the
    input order), the reciprocal norms of the residuals they normalise
    (frames[i] = invs[i] * residual i), and the per-point mask `ok`, which
    is `guard` without the points where a residual's norm falls below
    `eps` times the input scale; frames hold junk outside it.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    batch = np.broadcast_shapes(*[v.batch for v in vectors])
    scale_sq = np.zeros(batch)
    for v in vectors:
        scale_sq = np.maximum(scale_sq, v.dot_value(v).real)
    ok = np.broadcast_to(np.asarray(guard, bool), batch).copy()

    frames = []
    invs = []
    for v in vectors:
        w = v
        for e in frames:
            w = w - e.scale(w.dot(e))
        nsq = w.norm_sq()
        ok &= nsq.value().real > (eps ** 2) * scale_sq
        inv = nsq.sqrt(guard=ok).recip(guard=ok)
        frames.append(w.scale(inv))
        invs.append(inv)
    return frames, invs, ok
