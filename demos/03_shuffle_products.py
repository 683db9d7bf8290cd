"""
Shuffle products over the two-parameter kernel
==============================================

Symmetric rational-function arithmetic with the kernel

    zeta(x) = (1 - q1 x)(1 - q2 x) / ((1 - x)(1 - q1 q2 x)),

all values exact rationals.
"""

from fractions import Fraction

from hallwin.shuffle import (
    KernelParams,
    ShuffleElement,
    equals,
    mul,
    parse_element,
    serialize_element,
    shuffle_eval,
    zeta_value,
)

params = KernelParams("a2")

###############################################################################
# Kernel values at rational points.

for x in (Fraction(5), Fraction(1, 5)):
    print(f"zeta({x}) at q=(2,3): {zeta_value(x, 2, 3)}")

###############################################################################
# Products.
#
# The degree-1 constant function multiplied with itself symmetrizes the
# kernel over the two orderings of (z1, z2); evaluation stays exact.

one = ShuffleElement.from_expr(1, 1)
prod = mul(one, one, params)
print(f"(1 * 1)(5, 1) at q=(2,3): {shuffle_eval(prod, (5, 1), 2, 3)}")

# At q1 = q2 = 1 the kernel collapses to 1 and the product degenerates
# to plain symmetrization.
print(f"(1 * 1)(3, 7) at q=(1,1): {shuffle_eval(prod, (3, 7), 1, 1)}")

###############################################################################
# Associativity, checked at random rational points (seeded).

f = parse_element("z1", degree=1)
g = parse_element("z1*z2", degree=2)
h = parse_element("1", degree=1)
left = mul(mul(f, g, params), h, params)
right = mul(f, mul(g, h, params), params)
print("associativity (probabilistic):",
      equals(left, right, params, strategy="probabilistic", seed=5, points=5))

###############################################################################
# The text mini-language round-trips.

elem = parse_element("z1^2 + z2^2 - 3*z1*z2", degree=2)
text = serialize_element(elem)
print(f"serialized: {text}")
print("round trip equal:", equals(elem, parse_element(text, degree=2), params))
