# Representative sets: keep few candidates, lose no extension.
#
# Given a family of tuples over a layered matroid (a plain list, one ground
# element per layer in layer order), the product-form selection keeps at
# most (product of layer ranks) tuples, in input order, while preserving
# this property: whenever some original tuple extends an independent base,
# a kept tuple extends it too. The marking stage relies on exactly that guarantee.

import itertools
import sys
from pathlib import Path

from cutmimic.ffield import MERSENNE61, PrimeField
from cutmimic.matroids import LayeredMatroid, uniform_rep
from cutmimic.repset import representative_set_product

# The general form is reference code from the test suite, not part of the
# library: the marking stage runs the product form only.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference import representative_set_general  # noqa: E402

F = PrimeField(MERSENNE61)

# two uniform layers of rank 2: at most 4 survivors whatever the family size
a = uniform_rep(F, ["a1", "a2", "a3", "a4"], 2)
b = uniform_rep(F, ["b1", "b2", "b3", "b4"], 2)
lm = LayeredMatroid((a, b))

family = [(x, y) for x in a.ground for y in b.ground]
kept = representative_set_product(lm, family)
print("family size:", len(family))
print("rank product bound:", lm.rank_product())
print("survivors:", len(kept), "->", kept)

# spot-check the extension property for one base per layer: in the direct
# sum, a tuple extends the base when every layer stays independent with it
base = (["a3"], ["b4"])


def extends_base(t):
    return all(layer.is_independent([*xs, x])
               for layer, xs, x in zip(lm.layers, base, t))


could = [t for t in family if extends_base(t)]
still = [t for t in kept if extends_base(t)]
print()
print(f"tuples extending base {{a3}},{{b4}}: {len(could)} originally, "
      f"{len(still)} among survivors")
assert bool(could) == bool(still)

# the general form works on a single matrix and s-subsets of its ground
mat = uniform_rep(F, list(range(8)), 4).matrix
pairs = list(itertools.combinations(range(8), 2))
kept2 = representative_set_general(mat, pairs, 2)
print()
print("general form on 28 column pairs of a rank-4 matrix:",
      len(kept2), "survivors (bound C(4,2) = 6)")
