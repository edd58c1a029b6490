"""Run configuration: one JSON document drives every pipeline stage.

Every field of the document is declared once, in `FIELDS`, with its JSON
type, range and default.  A wrong type, a value out of range, a
non-finite number or an unknown key, at any depth, is a ConfigError that
names the field's path, such as ``grid.nx`` or ``curve[1][2]``.  Complex
numbers are ``[re, im]`` pairs, or plain numbers where the imaginary part
is zero.  The same document (canonicalized) is hashed into every report
so that a report can be traced back to the exact run that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .grid import Grid
from .weierstrass import (IsotropicCurve, IsotropicSpec, ambient_curve, holomorphic_curve,
                          preset_curve, w_generate)

CURVE_SOURCES = ("seed_preset", "spec", "curve", "ambient_curve")
# the shift vector v of c*f + v when the config gives no translation,
# repeated to the ambient dimension
_GENERIC_DIRECTION = (0.9, -0.4, 0.7, 0.3, -0.8, 0.5, 0.2, -0.6, 0.4, 0.1, -0.3, 0.8)

# the JSON types of the table, named as an error message names them
OBJECT, LIST, STRING = "an object", "a list", "a string"
NUMBER, INTEGER, COMPLEX = "a number", "an integer", "a number or [re, im] pair"
REQUIRED = "required"  # the default of a field that must be given

# path -> (JSON type, range, default).  "a.b" is key b of object a, "a[]"
# any item of list a.  A range bounds a number, or the length of a list,
# by a constant or by a sibling field.  A field whose default is None may
# be absent or null.  A curve source must give an ambient dimension >= 4:
# `curve` is doubled, so it needs two polynomials.
FIELDS = {
    "": (OBJECT, None, REQUIRED),
    "seed_preset": (STRING, None, None),
    "spec": (OBJECT, None, None),
    "spec.ambient_dim": (INTEGER, ">= 4", REQUIRED),
    "spec.isotropy_order": (INTEGER, ">= 1", REQUIRED),
    "spec.alpha0": (LIST, None, ()),
    "spec.alpha0[]": (LIST, None, REQUIRED),
    "spec.alpha0[][]": (COMPLEX, None, REQUIRED),
    "spec.betas": (LIST, None, REQUIRED),
    "spec.betas[]": (LIST, None, REQUIRED),
    "spec.betas[][]": (COMPLEX, None, REQUIRED),
    "curve": (LIST, ">= 2", None),
    "curve[]": (LIST, None, REQUIRED),
    "curve[][]": (COMPLEX, None, REQUIRED),
    "ambient_curve": (LIST, ">= 4", None),
    "ambient_curve[]": (LIST, None, REQUIRED),
    "ambient_curve[][]": (COMPLEX, None, REQUIRED),
    "grid": (OBJECT, None, {}),
    "grid.x0": (NUMBER, None, Grid.x0),
    "grid.x1": (NUMBER, ">= x0", Grid.x1),
    "grid.y0": (NUMBER, None, Grid.y0),
    "grid.y1": (NUMBER, ">= y0", Grid.y1),
    "grid.nx": (INTEGER, ">= 2", Grid.nx),
    "grid.ny": (INTEGER, ">= 2", Grid.ny),
    "grid.excluded_disks": (LIST, None, ()),
    "grid.excluded_disks[]": (OBJECT, None, REQUIRED),
    "grid.excluded_disks[].center": (LIST, "== 2", REQUIRED),
    "grid.excluded_disks[].center[]": (NUMBER, None, REQUIRED),
    "grid.excluded_disks[].radius": (NUMBER, ">= 0", REQUIRED),
    "jet_order": (INTEGER, ">= 2", 4),
    "scale": (NUMBER, None, 1.0),
    "translation": (LIST, None, None),
    "translation[]": (NUMBER, None, REQUIRED),
    "checks": (LIST, ">= 1", None),
    "checks[]": (STRING, None, REQUIRED),
    "out": (STRING, None, None),
}


def _grid_text(text):
    """"x0,x1,y0,y1,nx,ny" as a grid object; a field that is no number stays text."""
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError(f"grid string needs 6 comma-separated fields x0,x1,y0,y1,nx,ny, "
                          f"got {text!r}")
    return dict(zip(("x0", "x1", "y0", "y1", "nx", "ny"), map(_number_text, parts)))


def _number_text(text):
    try:
        return float(text)
    except ValueError:
        return text


# the other spellings of a field, read as its declared type
SPELLINGS = {
    "grid": lambda v: _grid_text(v) if isinstance(v, str) else v,
    "grid.excluded_disks[]": lambda v: (  # [x, y, r]
        {"center": v[:2], "radius": v[2]} if isinstance(v, (list, tuple)) and len(v) == 3 else v),
    "checks": lambda v: [c.strip() for c in v.split(",") if c.strip()] if isinstance(v, str) else v,
}


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


_TESTS = {
    OBJECT: lambda v: isinstance(v, dict),
    LIST: lambda v: isinstance(v, (list, tuple)),
    STRING: lambda v: isinstance(v, str),
    NUMBER: _number,
    INTEGER: lambda v: _number(v) and (not _finite(v) or float(v).is_integer()),
    COMPLEX: lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_number, v)),
}
_CASTS = {LIST: tuple, NUMBER: float, INTEGER: int, COMPLEX: lambda v: complex(*map(float, v))}
_BOUNDS = {">=": operator.ge, "==": operator.eq}


def _keys(key):
    """The declared keys of the object at table path `key`, in table order."""
    head = key + "." if key else ""
    return [k[len(head):] for k in FIELDS
            if k != key and k.startswith(head) and not set(".[") & set(k[len(head):])]


def _read(value, path, key, siblings):
    """`value` at `path` (table path `key`) checked against its row and
    read; `siblings` holds the fields of its object read before it."""
    kind, bound, _ = FIELDS[key]
    name = path or "config document"
    value, written = SPELLINGS.get(key, lambda v: v)(value), value
    if kind is COMPLEX and _number(value):
        value = (value, 0.0)
    if not _TESTS[kind](value):
        raise ConfigError(f"{name} must be {kind}, got {written!r}")
    if kind is OBJECT:
        unknown = sorted(set(value) - set(_keys(key)), key=str)
        if unknown:
            raise ConfigError("unknown config key " + ", ".join(
                f"{path}.{k}".lstrip(".") for k in unknown))
        given, value = value, {}
        for k in _keys(key):
            sub, sub_key = f"{path}.{k}".lstrip("."), f"{key}.{k}".lstrip(".")
            default = FIELDS[sub_key][2]
            if k in given and not (given[k] is None and default is None):
                value[k] = _read(given[k], sub, sub_key, value)
            elif default is REQUIRED:
                raise ConfigError(f"{sub} is required")
            elif default is not None:
                value[k] = _read(default, sub, sub_key, value)
    elif kind is LIST:
        value = [_read(v, f"{path}[{i}]", key + "[]", {}) for i, v in enumerate(value)]
    elif kind is not STRING and not all(map(_finite, value if kind is COMPLEX else [value])):
        raise ConfigError(f"{name} must be finite, got {written!r}")
    if bound:
        op, limit = bound.split()
        limit = siblings[limit] if limit in siblings else float(limit)
        if kind is LIST and not _BOUNDS[op](len(value), limit):
            raise ConfigError(f"{name} needs {bound.lstrip('= ')} items, got {len(value)}")
        if kind is not LIST and not _BOUNDS[op](value, limit):
            raise ConfigError(f"{name} must be {bound}, got {value!r}")
    return _CASTS.get(kind, lambda v: v)(value)


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _curve_from_config(doc: dict) -> IsotropicCurve:
    sources = [k for k in CURVE_SOURCES if k in doc]
    if len(sources) != 1:
        raise ConfigError("config needs exactly one of seed_preset / spec / curve / "
                          f"ambient_curve, found {sources or 'none'}")
    if "seed_preset" in doc:
        return preset_curve(doc["seed_preset"])
    if "curve" in doc:
        return holomorphic_curve(doc["curve"])
    if "ambient_curve" in doc:
        return ambient_curve(doc["ambient_curve"])
    return w_generate(IsotropicSpec(**doc["spec"]))


@dataclass
class RunConfig:
    """Everything a verification / export run depends on; the defaults
    are those of `FIELDS`."""

    curve: IsotropicCurve
    grid: Grid = field(default_factory=Grid)
    jet_order: int = FIELDS["jet_order"][2]  # read by the export CSV alone, which stops at order 3
    scale: float = FIELDS["scale"][2]  # c in the shifted pedal family c*f + v
    translation: Optional[tuple] = None  # v; see shift_vector
    checks: Optional[tuple] = None   # id prefixes to run; None = all
    out_dir: Optional[str] = None

    @staticmethod
    def from_document(doc) -> "RunConfig":
        """The run of a config document, checked against `FIELDS`."""
        doc = _read(doc, "", "", {})
        curve = _curve_from_config(doc)
        v = doc.get("translation")
        if v is not None and len(v) != curve.ambient_dim:
            raise ConfigError(f"translation has dimension {len(v)}, "
                              f"surface has {curve.ambient_dim}")
        grid = dict(doc["grid"])
        disks = tuple((*d["center"], d["radius"]) for d in grid.pop("excluded_disks"))
        return RunConfig(curve, Grid(**grid, excluded=disks), jet_order=doc["jet_order"],
                         scale=doc["scale"], translation=v,
                         checks=doc.get("checks"), out_dir=doc.get("out"))

    def shift_vector(self) -> np.ndarray:
        """v of c*f + v: the translation, else the generic direction repeated to n."""
        v = self.translation
        if v is None:
            n = self.curve.ambient_dim
            v = (_GENERIC_DIRECTION * -(-n // len(_GENERIC_DIRECTION)))[:n]
        return np.asarray(v, dtype=float)

    def canonical_document(self) -> dict:
        return {
            "ambient_curve": [[encode_complex(c) for c in p] for p in self.curve.phi],
            "grid": self.grid.to_config(),
            "jet_order": self.jet_order,
            "scale": self.scale,
            "translation": list(self.translation) if self.translation else None,
        }

    def digest(self) -> str:
        text = json.dumps(self.canonical_document(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
