"""Spans and counters recorded around isopedal's layer boundaries.

The tracer wraps public functions and class methods of the package from
the outside: it replaces a class attribute, or every module attribute
that refers to a wrapped function (modules that did ``from .x import y``
hold their own reference).  Nothing in the package itself changes, and
`Tracer.uninstall` puts every original back.

Each call into a wrapped layer records a span ``[name, start, end,
parent, op]`` in memory, where `op` numbers the benchmark op the call
belongs to; a layer's self time is its span's duration
minus the part covered by its child spans.  Byte and flop figures are
*computed* from array shapes, not measured.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# verify.run_all runs its check groups through these module functions
GROUPS = (
    ("generator", "verify_generation"),
    ("pedal_circle", "verify_superconformal"),
    ("pedal_conformal", "verify_pedal_conformality"),
    ("pedal_normal_span", "verify_normal_span"),
    ("pedal_mean", "verify_meancurvature"),
    ("pedal_secondform", "verify_pedal_secondform"),
    ("swillmore", "verify_swillmore"),
    ("inversion", "verify_inversion_minimality"),
    ("shifted", "verify_shifted_pedals"),
)
EVALUATOR_KINDS = ("surface", "pedal", "invert", "shadow", "composite")
CLI_COMMANDS = ("pedal", "verify", "export")
OUTCOMES = ("report", "config_error", "crash")

_COMPLEX = 16  # bytes per complex128 entry


def mul_cost(D):
    """(flops, bytes) per batch point of one jet-by-jet product, order D-1.

    Counts the numpy operations of `Jet.__mul__`: one zeroed output
    table, one multiply-add of a (D-i) x (D-j) block per coefficient
    (i, j) with i + j < D, and the final triangular mask.  Bytes are
    those read and written by each operation, from array shapes.
    """
    flops = 6 * D * D
    nbytes = 3 * _COMPLEX * D * D
    for i in range(D):
        for j in range(D - i):
            e = (D - i) * (D - j)
            flops += 8 * e                       # complex multiply + add
            nbytes += 5 * _COMPLEX * e + _COMPLEX  # temp = a*b; out += temp
    return flops, nbytes


def self_times(spans):
    """Self time of every span: duration minus the union of its children.

    `spans` holds ``[name, start, end, parent, op]`` entries with
    `parent` the index of the enclosing span or -1.
    """
    children = defaultdict(list)
    for k, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(k)
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(k, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def describe(name):
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s", "lower"
    if name.startswith("jets.kernel."):
        return "us", "lower"
    if name.endswith(("useful_ratio", "mean_batch")):
        return ("ratio" if name.endswith("ratio") else "points"), "higher"
    if name.endswith("overhead_ratio"):
        return "ratio", "lower"
    if name.endswith("flops_computed"):
        return "flop", "lower"
    if name.endswith("bytes_computed") or name.endswith(".bytes"):
        return "B", "lower"
    if name == "cli.outcome.report":
        return "count", "higher"
    return "count", "lower"


def evaluator_kind(ev):
    prov = ev.provenance
    for kind in ("pedal", "invert", "shadow"):
        if prov.startswith(kind + "("):
            return kind
    return "composite" if prov == "composite" else "surface"


def _points_digest(x, y):
    h = hashlib.sha1()
    for a in (x, y):
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """In-memory spans and per-round counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.round = -1
        self.op = -1
        self.op_round = []   # op id -> round it belongs to
        self.counts = defaultdict(Counter)
        self._stack = []
        self._bundle_keys = defaultdict(set)
        self._alive = []     # evaluators keyed by id() stay alive per round
        self._patches = []

    # -- spans -------------------------------------------------------------

    def begin_round(self):
        """Start a round (which also starts its first op)."""
        self.round += 1
        self._alive = []
        self.begin_op()

    def begin_op(self):
        self.op += 1
        self.op_round.append(self.round)

    def wrap(self, fn, name, before=None, after=None):
        """`fn` recording a span named `name` (a string, or a function of
        the call's arguments); `before(args, kwargs)` and
        `after(args, kwargs, result)` add counters."""
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if before is not None:
                before(args, kwargs)
            k = len(spans)
            spans.append([label, perf(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(k)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[k][2] = perf()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record_outcome(self, outcome):
        self.counts[self.round]["cli.outcome." + outcome] += 1

    # -- counters ------------------------------------------------------------

    def _count_mul(self, args, kwargs):
        a, b = args
        c = self.counts[self.round]
        if hasattr(b, "c"):
            D = min(a.c.shape[-1], b.c.shape[-1])
            sa, sb = a.c.shape[:-2], b.c.shape[:-2]
            pts = math.prod(sa if sa == sb else np.broadcast_shapes(sa, sb))
            flops, nbytes = mul_cost(D)
        else:  # scalar scaling of one table
            D = a.c.shape[-1]
            pts = math.prod(a.c.shape[:-2])
            flops, nbytes = 6 * D * D, 2 * _COMPLEX * D * D
        c["jets.mul.points"] += pts
        c["jets.mul.flops_computed"] += flops * pts
        c["jets.mul.bytes_computed"] += nbytes * pts

    def _count_bundle(self, args, kwargs):
        surface, x, y = args[1], args[2], args[3]
        order = args[4] if len(args) > 4 else kwargs.get("order", "default")
        self._alive.append(surface)
        self._bundle_keys[self.round].add((id(surface), _points_digest(x, y), order))

    def _count_minimality(self, args, kwargs):
        pedal_bundle, centers = args[0], np.asarray(args[1])
        pts = math.prod(pedal_bundle.base.batch)
        # one dense (n, centers, points) float64 temporary per call
        self.counts[self.round]["moebius.lattice.bytes_computed"] += (
            8 * centers.shape[0] * centers.shape[1] * pts)

    def _count_lattice(self, args, kwargs, centers):
        self.counts[self.round]["moebius.lattice.centers"] += centers.shape[0]

    def _count_file(self, name):
        """`after` hook adding the size of the file a writer wrote."""
        def after(args, kwargs, result):
            path = args[2] if len(args) > 2 else kwargs["path"]
            self.counts[self.round][name + ".bytes"] += os.path.getsize(path)
        return after

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, make):
        """Replace `module.attr` and every isopedal module alias of it."""
        orig = getattr(module, attr)
        new = make(orig)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "isopedal" or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, new)

    def install(self):
        import isopedal.cli as cli
        import isopedal.export as export
        import isopedal.geometry as geometry
        import isopedal.jets as jets
        import isopedal.moebius as moebius
        import isopedal.pedal as pedal
        import isopedal.verify as verify
        import isopedal.weierstrass as weierstrass

        Jet, JetVec = jets.Jet, jets.JetVec
        self._set(Jet, "__mul__", self.wrap(Jet.__mul__, "jets.mul", self._count_mul))
        self._set(JetVec, "dot", self.wrap(JetVec.dot, "jets.dot"))
        self._set(Jet, "recip", self.wrap(Jet.recip, "jets.recip"))
        self._set(Jet, "sqrt", self.wrap(Jet.sqrt, "jets.sqrt"))
        self._patch_function(jets, "jet_lift", lambda f: self.wrap(f, "jets.lift"))
        self._patch_function(jets, "jet_gram_schmidt",
                             lambda f: self.wrap(f, "jets.gram_schmidt"))

        SJ = geometry.SurfaceJets
        self._set(SJ, "__init__", self.wrap(SJ.__init__, "geometry.bundle",
                                             self._count_bundle))
        self._set(SJ, "_build_level", self.wrap(SJ._build_level, "geometry.flag"))
        self._set(SJ, "connection_forms",
                  self.wrap(SJ.connection_forms, "geometry.connection"))

        SE = weierstrass.SurfaceEvaluator
        self._set(SE, "jets", self.wrap(
            SE.jets, lambda a: "evaluator.jets." + evaluator_kind(a[0])))
        self._set(SE, "mask", self.wrap(
            SE.mask, lambda a: "evaluator.mask." + evaluator_kind(a[0])))
        for attr in ("w_generate", "holomorphic_curve", "ambient_curve"):
            self._patch_function(weierstrass, attr,
                                 lambda f: self.wrap(f, "weierstrass.curve"))

        self._patch_function(pedal, "pedal_split", lambda f: self.wrap(f, "pedal.split"))
        self._patch_function(pedal, "pedal_regularity",
                             lambda f: self.wrap(f, "pedal.regularity"))

        self._patch_function(moebius, "minimality_residuals", lambda f: self.wrap(
            f, "moebius.minimality", self._count_minimality))

        self._patch_function(verify, "_center_lattice", lambda f: self.wrap(
            f, "moebius.lattice", after=self._count_lattice))
        for prefix, attr in GROUPS:
            self._patch_function(verify, attr,
                                 lambda f, p=prefix: self.wrap(f, "verify.group." + p))
        self._patch_function(verify, "run_all", lambda f: self.wrap(f, "verify.run_all"))
        self._patch_function(verify, "report_to_json",
                             lambda f: self.wrap(f, "verify.report"))

        self._patch_function(export, "export_obj", lambda f: self.wrap(
            f, "export.obj", after=self._count_file("export.obj")))
        for attr in ("write_geometry_csv", "write_pedal_csv"):
            self._patch_function(export, attr, lambda f: self.wrap(
                f, "export.csv", after=self._count_file("export.csv")))
        self._patch_function(export, "rank_note",
                             lambda f: self.wrap(f, "export.rank_note"))
        for name in CLI_COMMANDS:
            self._patch_function(cli, "cmd_" + name,
                                 lambda f, n=name: self.wrap(f, "cli.command." + n))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------

    def round_totals(self, rnd, selfs=None):
        """Per-layer metrics of one round, keyed by per-layer metric name;
        `selfs` are the spans' self times, if already computed."""
        if selfs is None:
            selfs = self_times(self.spans)
        calls, busy, wall = Counter(), Counter(), Counter()
        for sp, st in zip(self.spans, selfs):
            if self.op_round[sp[4]] == rnd:
                calls[sp[0]] += 1
                busy[sp[0]] += st
                wall[sp[0]] += sp[2] - sp[1]
        c = self.counts[rnd]
        out = {}
        out["jets.mul.calls"] = calls["jets.mul"]
        out["jets.mul.self_s"] = busy["jets.mul"]
        out["jets.mul.mean_batch"] = c["jets.mul.points"] / max(calls["jets.mul"], 1)
        out["jets.mul.flops_computed"] = c["jets.mul.flops_computed"]
        out["jets.mul.bytes_computed"] = c["jets.mul.bytes_computed"]
        for op in ("lift", "dot", "recip", "sqrt", "gram_schmidt"):
            out[f"jets.{op}.calls"] = calls["jets." + op]
            out[f"jets.{op}.self_s"] = busy["jets." + op]
        builds = calls["geometry.bundle"]
        distinct = len(self._bundle_keys[rnd])
        out["geometry.bundle.builds"] = builds
        out["geometry.bundle.distinct"] = distinct
        out["geometry.bundle.useful_ratio"] = distinct / builds if builds else 1.0
        out["geometry.bundle.self_s"] = busy["geometry.bundle"]
        out["geometry.flag.self_s"] = busy["geometry.flag"]
        out["geometry.connection.self_s"] = busy["geometry.connection"]
        for what in ("jets", "mask"):
            for kind in EVALUATOR_KINDS:
                key = f"evaluator.{what}.{kind}"
                out[key + ".calls"] = calls[key]
                out[key + ".self_s"] = busy[key]
        out["weierstrass.curve.calls"] = calls["weierstrass.curve"]
        out["weierstrass.curve.self_s"] = busy["weierstrass.curve"]
        out["pedal.split.calls"] = calls["pedal.split"]
        out["pedal.split.self_s"] = busy["pedal.split"]
        out["pedal.regularity.self_s"] = busy["pedal.regularity"]
        out["moebius.minimality.calls"] = calls["moebius.minimality"]
        out["moebius.minimality.self_s"] = busy["moebius.minimality"]
        out["moebius.lattice.centers"] = c["moebius.lattice.centers"]
        out["moebius.lattice.bytes_computed"] = c["moebius.lattice.bytes_computed"]
        for prefix, _ in GROUPS:
            out[f"verify.group.{prefix}.self_s"] = busy["verify.group." + prefix]
            out[f"verify.group.{prefix}.total_s"] = wall["verify.group." + prefix]
        out["verify.report.self_s"] = busy["verify.report"]
        for fmt in ("obj", "csv"):
            out[f"export.{fmt}.self_s"] = busy[f"export.{fmt}"]
            out[f"export.{fmt}.bytes"] = c[f"export.{fmt}.bytes"]
        out["export.rank_note.self_s"] = busy["export.rank_note"]
        for outcome in OUTCOMES:
            out["cli.outcome." + outcome] = c["cli.outcome." + outcome]
        for name in CLI_COMMANDS:
            out[f"cli.command.{name}.self_s"] = busy["cli.command." + name]
        return out

    def write(self, path):
        """Write every span as gzipped JSON: [name, start, end, parent, op]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "op_round": self.op_round, "spans": self.spans}, fh, separators=(",", ":"))
