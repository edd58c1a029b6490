"""Run configuration: one JSON document drives every pipeline stage.

Complex numbers are serialized as ``[re, im]`` pairs throughout; plain
numbers are accepted where an imaginary part would be zero.  The same
document (canonicalized) is hashed into every report so that a report
can be traced back to the exact run that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .grid import Grid, finite
from .weierstrass import (
    IsotropicCurve,
    IsotropicSpec,
    ambient_curve,
    holomorphic_curve,
    preset_curve,
    w_generate,
)

DEFAULT_JET_ORDER = 4
DEFAULT_LATTICE = {"per_axis": 3, "lo": -1.6, "hi": 1.6, "radius": 1.0}


def parse_complex(obj):
    """A finite number or [re, im] pair -> python complex."""
    if isinstance(obj, (int, float)):
        obj = (obj, 0.0)
    if (
        isinstance(obj, (list, tuple))
        and len(obj) == 2
        and all(isinstance(v, (int, float)) for v in obj)
    ):
        return complex(*(finite(v, "curve coefficient") for v in obj))
    raise ConfigError(f"expected a number or [re, im] pair, got {obj!r}")


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def parse_poly(obj) -> list:
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"polynomial must be a coefficient list, got {obj!r}")
    return [parse_complex(c) for c in obj]


def _typed(value, types, name: str, what: str):
    """`value`, which must be one of `types`; a ConfigError naming the
    field `name` otherwise."""
    if not isinstance(value, types):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _poly_list(value, name: str) -> list:
    return [parse_poly(p) for p in _typed(value, (list, tuple), name, "a list of polynomials")]


def _curve_from_config(doc: dict) -> IsotropicCurve:
    sources = [k for k in ("seed_preset", "spec", "curve", "ambient_curve")
               if k in doc]
    if len(sources) != 1:
        raise ConfigError(
            "config needs exactly one of seed_preset / spec / curve / "
            f"ambient_curve, found {sources or 'none'}"
        )
    key = sources[0]
    if key == "seed_preset":
        return preset_curve(doc["seed_preset"])
    if key == "curve":
        return holomorphic_curve(_poly_list(doc["curve"], "curve"))
    if key == "ambient_curve":
        return ambient_curve(_poly_list(doc["ambient_curve"], "ambient_curve"))
    spec = doc["spec"]
    if not isinstance(spec, dict):
        raise ConfigError("spec must be an object")
    try:
        ispec = IsotropicSpec(
            ambient_dim=int(finite(spec["ambient_dim"], "spec ambient_dim")),
            isotropy_order=int(finite(spec["isotropy_order"], "spec isotropy_order")),
            alpha0=_poly_list(spec.get("alpha0", []), "spec alpha0"),
            betas=_poly_list(spec["betas"], "spec betas"),
        )
    except KeyError as e:
        raise ConfigError(f"spec is missing field {e.args[0]!r}") from None
    return w_generate(ispec)


@dataclass
class RunConfig:
    """Everything a verification / export run depends on."""

    curve: IsotropicCurve
    grid: Grid = field(default_factory=Grid)
    jet_order: int = DEFAULT_JET_ORDER
    tolerances: dict = field(default_factory=dict)
    scale: float = 1.0               # c in the shifted pedal family c*f + v
    translation: Optional[tuple] = None  # v (defaults to a fixed generic vector)
    lattice: dict = field(default_factory=lambda: dict(DEFAULT_LATTICE))
    checks: Optional[tuple] = None   # id prefixes to run; None = all
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.jet_order < 2:
            raise ConfigError("jet_order must be >= 2")
        if self.grid.nx < 2 or self.grid.ny < 2:
            raise ConfigError("grid needs nx >= 2 and ny >= 2")
        for name, val in self.tolerances.items():
            if not isinstance(val, (int, float)) or finite(val, f"tolerance {name!r}") <= 0:
                raise ConfigError(f"tolerance override {name!r} must be positive")
        self.scale = finite(self.scale, "scale")
        if self.translation is not None:
            self.translation = tuple(finite(v, "translation component") for v in _typed(
                self.translation, (list, tuple), "translation", "a list of numbers"))
            if len(self.translation) != self.curve.ambient_dim:
                raise ConfigError(
                    f"translation has dimension {len(self.translation)}, "
                    f"surface has {self.curve.ambient_dim}"
                )
        lat = dict(DEFAULT_LATTICE)
        lat.update(self.lattice or {})
        for key in ("lo", "hi", "radius"):
            finite(lat[key], f"lattice {key}")
        if int(finite(lat["per_axis"], "lattice per_axis")) < 1 or lat["radius"] <= 0:
            raise ConfigError("lattice needs per_axis >= 1 and radius > 0")
        self.lattice = lat

    @staticmethod
    def from_document(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        known = {
            "seed_preset", "spec", "curve", "ambient_curve", "grid",
            "jet_order", "tolerances", "scale", "translation", "lattice",
            "checks", "out",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        curve = _curve_from_config(doc)
        grid = Grid.from_config(doc["grid"]) if "grid" in doc else Grid()
        checks = doc.get("checks")
        if checks is not None:
            if isinstance(checks, str):
                checks = [c.strip() for c in checks.split(",") if c.strip()]
            checks = tuple(str(c) for c in _typed(
                checks, (list, tuple), "checks", "a list or a comma-separated string"))
        return RunConfig(
            curve=curve,
            grid=grid,
            jet_order=int(finite(doc.get("jet_order", DEFAULT_JET_ORDER), "jet_order")),
            tolerances=dict(_typed(doc.get("tolerances", {}), dict, "tolerances", "an object")),
            scale=doc.get("scale", 1.0),
            translation=doc.get("translation"),
            lattice=dict(_typed(doc.get("lattice", {}), dict, "lattice", "an object")),
            checks=checks,
            out_dir=_typed(doc.get("out"), (str, type(None)), "out", "a directory path"),
        )

    def canonical_document(self) -> dict:
        doc = {
            "ambient_curve": [[encode_complex(c) for c in p] for p in self.curve.phi],
            "grid": self.grid.to_config(),
            "jet_order": self.jet_order,
            "tolerances": dict(sorted(self.tolerances.items())),
            "scale": self.scale,
            "translation": list(self.translation) if self.translation else None,
            "lattice": dict(sorted(self.lattice.items())),
        }
        return doc

    def digest(self) -> str:
        text = json.dumps(self.canonical_document(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
