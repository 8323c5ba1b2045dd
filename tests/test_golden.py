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

from quadlimit import delimit, render_ascii_grid, render_svg, result_to_json

from helpers import random_scenario

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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_outputs_match_pinned_digests():
    rng = random.Random(5005)
    mismatched = []
    labelled = 0
    for i, expected in enumerate(GOLDEN):
        s = random_scenario(rng, max_dim=24, with_states=i % 2 == 1)
        labelled += s.state_labels is not None and len(s.states) > 1
        result = delimit(s)
        got = (_digest(result_to_json(result)), _digest(render_svg(result, s.grid)),
               _digest(render_ascii_grid(result)))
        if got != expected:
            mismatched.append((i, [k for k, a, b in zip(("json", "svg", "ascii"), got,
                                                         expected) if a != b]))
    assert labelled >= 10
    assert mismatched == []
