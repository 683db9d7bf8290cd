"""The library's refusals of input it does not handle, one row per raise.

Each row is a call and the exception it must raise, with its message.
Every other test file reaches its own refusals; these are the raises that
no other test executes, so a refusal that drifted to another message, or
to silence, would go unseen without them.
"""

import re
from fractions import Fraction as F

import pytest

from hallwin import Quiver, Weight, builtin_quiver, decompose, window_generators
from hallwin.pbw import sym_count
from hallwin.polytope import WPolytope
from hallwin.quiver_weights import block_decompose, cochar_classes, composition_cocharacter, pair
from hallwin.shuffle import ShuffleElement, equals, mul, parse_element, shuffle_eval

Q3 = builtin_quiver("tripled-jordan")
TWO = Quiver.from_json('{"vertices": [0, 1], "edges": [[0, 1], [1, 0], [0, 0]], "cut": [0]}')


def W(coords, blocks):
    return Weight.make(coords, blocks)


def degree_12():
    return parse_element("1", degree=12)


REFUSALS = [
    ("fractional leaf", lambda: decompose(Q3, (2,), W([F(7, 2), F(-7, 2)], (2,))),
     ValueError, "partition weight is not an integer"),
    ("decompose on two vertices", lambda: decompose(TWO, (1, 1), W([0, 0], (1, 1))),
     NotImplementedError, "decomposition implemented for one-vertex quivers"),
    ("decompose with wrong blocks", lambda: decompose(Q3, (2,), W([1, 0, 0], (3,))),
     ValueError, "weight has wrong block structure"),
    ("windows on two vertices", lambda: window_generators(TWO, (1, 1), 0),
     NotImplementedError, "window enumeration needs a one-vertex quiver"),
    ("windows with a delta of other blocks",
     lambda: window_generators(Q3, (2,), 0, W([1, 1, 1], (3,))),
     ValueError, "block mismatch"),
    ("interior on two vertices",
     lambda: WPolytope(TWO, (1, 1)).contains_interior(W([0, 0], (1, 1)), F(1, 2)),
     NotImplementedError, "interior test implemented for one-vertex quivers"),
    ("face on two vertices",
     lambda: WPolytope(TWO, (1, 1)).face_cocharacter(W([0, 0], (1, 1)), F(1, 2)),
     NotImplementedError, "face cocharacters need a one-vertex quiver"),
    ("classes on two vertices", lambda: cochar_classes((1, 1)),
     NotImplementedError, "cocharacter class enumeration needs a one-vertex quiver"),
    ("weight sum across blocks", lambda: W([1, 0], (2,)) + W([1, 0], (1, 1)),
     ValueError, "block mismatch"),
    ("weight difference across blocks", lambda: W([1, 0], (2,)) - W([1, 0], (1, 1)),
     ValueError, "block mismatch"),
    ("pair across slot counts", lambda: pair(W([1, 0], (2,)), W([1, 0, 0], (3,))),
     ValueError, "slot mismatch"),
    ("empty composition", lambda: composition_cocharacter(()),
     ValueError, "empty composition"),
    ("block decompose across shapes",
     lambda: block_decompose(W([1, 0], (2,)), W([0, 0], (1, 1))),
     ValueError, "weight and cocharacter have different slot shapes"),
    ("negative symmetric degree", lambda: sym_count(2, -1),
     ValueError, "negative symmetric degree"),
    ("negative space dimension", lambda: sym_count(-1, 2),
     ValueError, "negative space dimension"),
    ("negative degree", lambda: ShuffleElement(-1, None), ValueError, "negative degree"),
    ("parse past the maximum degree", lambda: parse_element("1", degree=13),
     ValueError, "degree 13 exceeds the supported maximum 12"),
    ("product past the maximum degree", lambda: mul(degree_12(), parse_element("z1", degree=1)),
     ValueError, "product degree exceeds the supported maximum"),
    ("unknown strategy", lambda: equals(degree_12(), degree_12(), strategy="nope"),
     ValueError, "unknown strategy 'nope'"),
    ("wrong number of z values",
     lambda: shuffle_eval(parse_element("z1+z2", degree=2), (F(1),), F(2), F(3)),
     ValueError, "wrong number of z values"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_library_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
