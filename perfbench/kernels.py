"""Microbenchmark of the jet kernels on synthetic jets from a fixed seed.

    python3 perfbench/kernels.py

times `Jet.__mul__`, `JetVec.dot` (6 components), `Jet.recip` and
`Jet.sqrt` at batch sizes 25, 441 and 1681 and jet orders 4 and 5, and
prints microseconds per call with the flops and bytes per call computed
from array shapes (the jet-by-jet products only; the elementwise steps
around them are not counted).
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from tracing import mul_cost

KERNEL_SEED = 20140306
KERNELS = ("mul", "dot", "recip", "sqrt")
ORDERS = (4, 5)
BATCHES = (25, 441, 1681)
DOT_COMPONENTS = 6
BLOCKS = 5
BLOCK_SECONDS = 0.004


def metric_name(kernel, order, batch):
    return f"jets.kernel.{kernel}_us.o{order}.b{batch}"


def products_per_call(kernel, order):
    """Jet-by-jet products one call makes."""
    return {"mul": 1, "dot": DOT_COMPONENTS, "recip": order, "sqrt": order}[kernel]


def cost(kernel, order, batch):
    """Computed (flops, bytes) of one call."""
    flops, nbytes = mul_cost(order + 1)
    k = products_per_call(kernel, order) * batch
    return flops * k, nbytes * k


def _jet(rng, order, batch):
    from isopedal.jets import Jet

    D = order + 1
    tri = np.add.outer(np.arange(D), np.arange(D)) <= order
    c = (rng.standard_normal((batch, D, D)) + 1j * rng.standard_normal((batch, D, D))) * tri
    c[:, 0, 0] = 1.0 + np.abs(c[:, 0, 0])  # positive real value: recip and sqrt defined
    return Jet(c)


def _calls(order, batch):
    from isopedal.jets import JetVec

    rng = np.random.default_rng(KERNEL_SEED + 10 * order + batch)
    a, b = _jet(rng, order, batch), _jet(rng, order, batch)
    u = JetVec([_jet(rng, order, batch) for _ in range(DOT_COMPONENTS)])
    v = JetVec([_jet(rng, order, batch) for _ in range(DOT_COMPONENTS)])
    return {"mul": lambda: a * b, "dot": lambda: u.dot(v),
            "recip": lambda: a.recip(), "sqrt": lambda: a.sqrt()}


def _per_call_us(fn):
    """Median over BLOCKS timed blocks of the microseconds per call."""
    fn()
    reps, t0 = 1, time.perf_counter()
    fn()
    per = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(BLOCK_SECONDS / per))
    blocks = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        blocks.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(blocks)


def measure():
    """Per-layer metrics: microseconds per call for every kernel case."""
    out = {}
    for order in ORDERS:
        for batch in BATCHES:
            calls = _calls(order, batch)
            for kernel in KERNELS:
                out[metric_name(kernel, order, batch)] = _per_call_us(calls[kernel])
    return out


def main():
    print(f"{'kernel':<6} {'order':>5} {'batch':>6} {'us/call':>10} "
          f"{'Mflop/call':>11} {'MB/call':>9} {'Gflop/s':>8} {'flop/B':>7}")
    times = measure()
    for order in ORDERS:
        for batch in BATCHES:
            for kernel in KERNELS:
                us = times[metric_name(kernel, order, batch)]
                flops, nbytes = cost(kernel, order, batch)
                print(f"{kernel:<6} {order:>5} {batch:>6} {us:>10.1f} "
                      f"{flops / 1e6:>11.3f} {nbytes / 1e6:>9.3f} "
                      f"{flops / us / 1e3:>8.3f} {flops / nbytes:>7.3f}")


if __name__ == "__main__":
    import os
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    main()
