"""The config document: its canonical form and digest are frozen."""

import json
from pathlib import Path

import pytest

from isopedal.config import RunConfig

# canonical_document() and spec_sha256 of each document below, frozen: a
# change that alters either replaces this file and says why
CANONICAL = Path(__file__).parent / "data" / "canonical_documents.json"
DOCUMENTS = {
    "seed_preset": {"seed_preset": "holo4"},
    "spec": {"spec": {"ambient_dim": 7, "isotropy_order": 2, "alpha0": [[0.5, [0, 1]]],
                      "betas": [[1], [1, 0.5], [[0.3, -0.2]]]}},
    "curve": {"curve": [[0, 1], [0, 0, 1], [0, 0, 0, [1, 0.5]]]},
    "ambient_curve": {"ambient_curve": [[0, 1], [0, [0, 1]], [0, 0, 1], [0, 0, [0, 1]]]},
    "every_optional_field": {
        "seed_preset": "holo3",
        "grid": {"x0": 0.25, "x1": 1, "y0": 0, "y1": 1.5, "nx": 9.0, "ny": 7,
                 "excluded_disks": [[0.5, 0.5, 0.1], {"center": [1, 1.25], "radius": 0}]},
        "jet_order": 5.0,
        "tolerances": {"pedal_conformal": 1e-7, "first_normal_rank": 1},
        "scale": 2,
        "translation": [1, -0.5, 0, 0.25, 2, -1],
        "checks": "generator,pedal_mean",
        "out": "out",
    },
    "grid_string": {"seed_preset": "holo3", "grid": "-0.5,0.5,-0.5,0.5,11,11"},
}


def canonical(doc):
    cfg = RunConfig.from_document(doc)
    return {"canonical_document": cfg.canonical_document(), "spec_sha256": cfg.digest()}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_canonical_documents_are_frozen(name):
    frozen = json.loads(CANONICAL.read_text())[name]
    assert canonical(DOCUMENTS[name]) == frozen
