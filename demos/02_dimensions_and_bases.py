"""Dimensions of the quotient spaces and the canonical basis.

Everything is computed over exact rationals: diagrams reduce to chord
diagrams by STU, the four-term relations are generated mechanically,
and the reduced dimensions come from exact row reduction.  The
unreduced (framed) dimensions and classes are read off the reduced
quotients via A^fr = A[theta], theta the isolated chord.  The canonical
basis at each degree lists connected diagrams first and then one
product for every multiset of lower-degree connected elements.
"""

import time

from vassiliev import (
    coordinates,
    dimension,
    reduce_to_chords,
    serialize,
    shared_basis,
)
from vassiliev.diagrams import Diagram

t0 = time.time()
print("degree :  unreduced  reduced")
for i in range(7):
    print(f"   {i}   :     {dimension(i, False):2d}       {dimension(i, True):2d}")
print(f"(exact rank computations, {time.time() - t0:.1f}s)\n")

basis = shared_basis(6)
print("canonical basis (connected first, then composites):")
for i in range(2, 7):
    print(f"degree {i}: d = {basis.d(i)}, connected = {basis.d_hat(i)}")
    for e in basis.elements(i):
        kind = "connected" if e.connected else "composite"
        comps = " ".join(f"r[{a},{b + 1}]" for a, b in e.components)
        print(f"  [{e.index}] {kind:9s} = {comps}")
        print(f"        {serialize(e.diagram)}")

# Coordinates express any diagram in the degree's basis, verified by an
# exact rank test against the relation span.
tripod = Diagram(3, 1, [(0, 3), (1, 4), (2, 5)])
print("\ntripod coordinates in the degree-2 basis:",
      coordinates(tripod, basis).values)
print("tripod as chord diagrams:",
      [(str(c), serialize(d)) for d, c in reduce_to_chords(tripod).items()])
