"""Byte-level pins on the three output formats.

Each row holds the first 16 hex digits of the sha256 of ``result_to_json``,
``render_svg`` (default style) and ``render_ascii_grid`` for one scenario of
a fixed-seed ``random_scenario`` sequence, alternating unlabelled and
band-state scenarios. The digests were taken from the implementation that
kept separate leaf-parent, leaf-order and leaf-lookup tables beside the
node objects, so they show that holding the tree once changed no output.
Band states are rectangles, so clipping state shapes to their masks must
leave these digests as they are too.
"""

import hashlib
import random

import numpy as np

from quadlimit import delimit, load_scenario, render_ascii_grid, render_svg, result_to_json

from helpers import random_l_labels, random_scenario, random_staircase_labels, scenario_text

GOLDEN = [
    ("d9938580f72d5022", "587f23f66028c6b7", "cdd13bed521c3c54"),
    ("36a11223f48f9195", "d05274e6778e91ff", "0b84f81a3fb08f62"),
    ("7d78adb4a14cb28b", "f7ad7b7852380e37", "5c91c2b47fafc5d3"),
    ("c2cf9b12a4e64c89", "fbc5a9d090208090", "955fe11268acc6bd"),
    ("008c148931bfcf3e", "be6c866ae4cf546d", "e7794b0365bd51d2"),
    ("742075bc8f36a698", "66a2f5d3a9234dd6", "be57c873c9e75430"),
    ("c9e85b4a6db57292", "5f55c38f7e7d1f60", "47096beaaf3f113a"),
    ("5ccd7b31fc24daa0", "033c65d6ab613826", "33ba5dadc4514ab2"),
    ("911cba0770cd284f", "e0b37e8add1005a3", "7aa25f41a97aa9a5"),
    ("2c618ffe44f2586e", "9773fd74aab5fbdf", "2115eb340bd3f9b8"),
    ("786a54ae1fca5b1d", "fda33a96b1dc1c9d", "1d77cf41394028eb"),
    ("104a749be9f737af", "eba6cf9c26876ba5", "08d1c652a87e3876"),
    ("5b87f50182670b94", "c6bdbefb4673eda7", "6d6a5a43504374a2"),
    ("4b0a30dcadcfd8d0", "eba40ea9eb3cdd8d", "1057f4ed43e013da"),
    ("b8566d83d250a6b5", "e8585ce68fe2e3c3", "65eee324af76bbe4"),
    ("97b27bf950328c9a", "857bcabe6110d67b", "9c98648a844fde9d"),
    ("d30116f90840f017", "fdb9bca1a92dbe21", "2e0ea572a1470158"),
    ("043156342ba9b36e", "bf2603139e846a76", "b21b5ba6c40acfd1"),
    ("85b32e906c1736a4", "edd8e9dfcd850ece", "3d82ed9967fce64b"),
    ("829d533b87eaf149", "cc52f5115e9d099f", "3176b35f3e6c3fd9"),
    ("0d8fd58213226abb", "738e7c9665ca21af", "a31c3692ffbfcc59"),
    ("6dcf85cb9520351c", "430bb05d0dec9fda", "e1ef904acb71f4d0"),
    ("58197fb2d3c39b96", "beb0c2ce2977c03f", "fbc32ed6e0c99c89"),
    ("eb5b214f315a328c", "ad261fbacb0604a3", "1aa4b9e6fa4d5e14"),
    ("2a2a95d0a9ac8be9", "ffaafeb70572a0de", "e432e69721a4efa9"),
    ("295e633fc74c3a56", "79d3557e0862cbf6", "49a40427c8602122"),
    ("ff8ac2d34f99c6bd", "4569df37ad9197e4", "12970bf6130da07a"),
    ("487a73514eb44aa7", "884df57ff1867aa6", "3156cee76fb58a99"),
    ("581fb675b7ed5ca1", "7a12ae08a6a8cb36", "9bfaf33dd55877a5"),
    ("7abea10b7ac50be7", "7f73f15def7b1997", "ed402f079fcb60a3"),
]


# Staircase (even rows) and L-shaped (odd rows) states from a fixed-seed
# ``random_scenario`` sequence: non-rectangular states whose bounding boxes
# overlap, so each state's tree covers cells of its neighbours. Taken from
# the implementation that built every state's masked grid at full size.
# Giving constituencies only the cells they own will change these on purpose.
NON_RECT_GOLDEN = [
    ("a19bad6ff7c2b78f", "8bbed2eb76ff746c", "75e7ddb1cca6b585"),
    ("8be0d136b938720a", "54b0428b510293d2", "1882d789d72dd8fb"),
    ("ee1c2b6c4345d508", "d9e2385824568702", "33367f69663bd6db"),
    ("259e19a9bf0a436e", "0676d32b70601667", "87ab2a084ddeb9dd"),
    ("d1d3d57724a955bd", "c3fbdce08c719ab2", "a35c60f52a0eb62c"),
    ("2aa663ff8caac608", "3fc1f410e2008329", "bf03a966da817f33"),
    ("c52199e8d5cf594e", "88bb51522947cc3b", "7c0f12731a54ef7a"),
    ("b43cebc0f5f8d582", "1f3e5598c6763e47", "41a6590629560544"),
    ("1a459e81efb9ff12", "4b778ea427b7cf24", "6dfbd1fe7bd2cd1d"),
    ("acc3eaaaa98cbe71", "29ead4a1584652fe", "d9d58490405ff5b4"),
    ("35e4138858f26a5a", "55027feeec53ac49", "d1fbe308db0c4ad3"),
    ("f3c891efdc92d29b", "6f32319433799504", "c58acfba64a51e05"),
    ("ac7544a529d97581", "7b907b68da8544ed", "4680a4f3d1e7ed61"),
    ("c2285061c079647a", "646798bc016ba713", "ab297db572405d9b"),
    ("e7433f2b7fee0bb7", "dfa6a8e25a7eedc1", "500339e0f16cf457"),
    ("a74919decbfdfb30", "a29136b40f943388", "d21dbf13f6a46e6c"),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _mismatch(scenario, expected) -> list[str]:
    """Names of the output formats whose digest differs from ``expected``."""
    result = delimit(scenario)
    got = (_digest(result_to_json(result)), _digest(render_svg(result, scenario.grid)),
           _digest(render_ascii_grid(result)))
    return [k for k, a, b in zip(("json", "svg", "ascii"), got, expected) if a != b]


def test_outputs_match_pinned_digests():
    rng = random.Random(5005)
    mismatched = []
    labelled = 0
    for i, expected in enumerate(GOLDEN):
        s = random_scenario(rng, max_dim=24, with_states=i % 2 == 1)
        labelled += s.state_labels is not None and len(s.states) > 1
        if differ := _mismatch(s, expected):
            mismatched.append((i, differ))
    assert labelled >= 10
    assert mismatched == []


def _overlapping_boxes(scenario) -> bool:
    """True if two states' bounding boxes share a cell."""
    codes = scenario.label_codes
    boxes = []
    for code in range(len(scenario.states)):
        ys, xs = np.nonzero(codes == code)
        boxes.append((xs.min(), ys.min(), xs.max(), ys.max()))
    return any(a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]
               for i, a in enumerate(boxes) for b in boxes[i + 1:])


def test_non_rectangular_states_match_pinned_digests():
    rng = random.Random(7007)
    mismatched = []
    overlapping = 0
    for i, expected in enumerate(NON_RECT_GOLDEN):
        labeller = random_l_labels if i % 2 else random_staircase_labels
        s = random_scenario(rng, max_dim=24, with_states=True, min_dim=6,
                            labeller=labeller)
        overlapping += _overlapping_boxes(s)
        if differ := _mismatch(s, expected):
            mismatched.append((i, differ))
    assert overlapping == len(NON_RECT_GOLDEN)
    assert mismatched == []


# State A is a ring around state B; state C touches A only at the vertex
# (5, 5); D wraps around both. A's bounding box holds all of B, so A's rects
# cover B's cells. Taken before one corner-linking tracer drew every outline.
RING_COUNTS = [
    [3, 1, 0, 2, 5, 1, 0, 4],
    [0, 4, 1, 1, 0, 2, 2, 0],
    [2, 0, 6, 1, 3, 0, 1, 1],
    [1, 2, 0, 3, 1, 5, 0, 2],
    [0, 1, 2, 0, 4, 1, 3, 0],
    [5, 0, 1, 2, 0, 2, 0, 1],
    [1, 3, 0, 1, 2, 1, 4, 0],
    [0, 2, 1, 0, 1, 0, 2, 3],
]
RING_LABELS = [
    "A A A A A D D D",
    "A A A A A D D D",
    "A A B B A D D D",
    "A A B B A D D D",
    "A A A A A D D D",
    "D D D D D C C D",
    "D D D D D C C D",
    "D D D D D D D D",
]
RING_GOLDEN = ("0d55af283c7f6e8d", "68b4ef32f62fa868", "2c002604855cd50e")


def test_ring_state_matches_pinned_digests():
    s = load_scenario(scenario_text(RING_COUNTS, 10, 60, [r.split() for r in RING_LABELS]))
    assert delimit(s).per_state["A"] == [1, 2, 3, 4, 5, 6, 7]
    assert _mismatch(s, RING_GOLDEN) == []
