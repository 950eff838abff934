"""Generated-world digests pinned across both PHY delivery kernels.

``tests/goldens/phy-world-digests.json`` holds, for each shape in
``tests/oracle/worlds.py`` at seed 17, the SHA-256 digest of the
world's delivery log, counters, drop trace and PHY stream position.
The digests were recorded before the numpy batch kernel and the
full-channel scan were removed from ``Medium``, with the scalar and
the numpy kernel over both the spatial grid and the scan all agreeing.

Each world runs twice here: ``grid`` through production ``Medium``
(grid fan-out plus the static-sender pair cache) and ``scan`` through
``tests.oracle.ReferenceMedium`` (a registration-order scan of every
radio). Both must reproduce the pinned digest. ``test_phy_oracle.py``
already shows the two kernels agree with each other; the golden also
catches a change to code they share — ``Radio._deliver``, the loss
formula, the draw order — that would move both alike.
"""

import json
from pathlib import Path

import pytest

from repro.phy.radio import Medium
from tests.oracle import ReferenceMedium
from tests.oracle.worlds import SHAPES, digest, run_world, shape_id

GOLDENS = Path(__file__).parent / "goldens" / "phy-world-digests.json"
_GOLDEN = json.loads(GOLDENS.read_text())

KERNELS = {"grid": Medium, "scan": ReferenceMedium}

WORLDS = [(shape, kernel) for shape in SHAPES for kernel in KERNELS]


def _world_id(params):
    (n, frac, layout, adj), kernel = params
    return f"n{n}-m{int(frac * 100)}-{layout}-{kernel}-adj{int(adj * 100)}"


def test_goldens_cover_every_shape():
    assert sorted(_GOLDEN["digests"]) == sorted(shape_id(s) for s in SHAPES)


@pytest.mark.parametrize("params", WORLDS, ids=_world_id)
def test_generated_world_kernel_identity(params):
    shape, kernel = params
    outcome = run_world(KERNELS[kernel], *shape, _GOLDEN["seed"])
    # The worlds must actually do something, or identity proves nothing.
    assert any(got for _, _, _, got, *_ in outcome["counters"])
    assert digest(outcome) == _GOLDEN["digests"][shape_id(shape)], (
        f"{shape_id(shape)} through the {kernel} kernel drifted from the "
        "digest pinned before the numpy kernel and the full scan were removed"
    )
