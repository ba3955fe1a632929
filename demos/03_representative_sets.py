# Representative sets: keep few candidates, lose no extension.
#
# Given a family of tuples over a product of matroid layers (one ground
# element per layer in layer order, each read as its column in that layer),
# the product-form selection keeps at most (product of layer ranks) tuples,
# in input order, while preserving this property: whenever some original
# tuple extends an independent base, a kept tuple extends it too. The
# marking stage relies on exactly that guarantee.

import itertools
import sys
from math import prod
from pathlib import Path

from cutmimic.ffield import MERSENNE61, PrimeField
from cutmimic.matroids import uniform_rep
from cutmimic.repset import representative_set_product

# The general form and the independence check are reference code from the
# test suite, not part of the library: the marking stage runs the product
# form only.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference import is_independent, representative_set_general  # noqa: E402

F = PrimeField(MERSENNE61)

# two uniform layers of rank 2: at most 4 survivors whatever the family size
a = uniform_rep(F, ["a1", "a2", "a3", "a4"], 2)
b = uniform_rep(F, ["b1", "b2", "b3", "b4"], 2)
layers = (a, b)

# the selection reads one column per layer and returns the kept indices
family = [(x, y) for x in a.ground for y in b.ground]
columns = [[layer.column_of(x) for layer, x in zip(layers, t)]
           for t in family]
kept = [family[i] for i in representative_set_product(F, columns)]
print("family size:", len(family))
print("rank product bound:", prod(layer.rank for layer in layers))
print("survivors:", len(kept), "->", kept)

# spot-check the extension property for one base per layer: in the direct
# sum, a tuple extends the base when every layer stays independent with it
base = (["a3"], ["b4"])


def extends_base(t):
    return all(is_independent(F, layer, [*xs, x])
               for layer, xs, x in zip(layers, base, t))


could = [t for t in family if extends_base(t)]
still = [t for t in kept if extends_base(t)]
print()
print(f"tuples extending base {{a3}},{{b4}}: {len(could)} originally, "
      f"{len(still)} among survivors")
assert bool(could) == bool(still)

# the general form works on a single matrix and s-subsets of its columns
cols = uniform_rep(F, list(range(8)), 4).columns
pairs = list(itertools.combinations(range(8), 2))
kept2 = representative_set_general(F, cols, pairs, 2)
print()
print("general form on 28 column pairs of a rank-4 matrix:",
      len(kept2), "survivors (bound C(4,2) = 6)")
