"""
Cross-checking the closed forms against a matrix oracle
=======================================================

Every closed-form cell can be recomputed from scratch: materialize both
groups as explicit matrices, sweep relative orientations, intersect, and
recognize what is left.  This script shows the oracle on one cell and
then runs the systematic sweep on a small grid.
"""

import numpy as np

from o3clips import (
    clips,
    materialize,
    octa,
    recognize,
    reference_group,
    verify_cells,
)
from o3clips.groups import intersect
from o3clips.rotations import random_rotation

# one worked intersection: a cube group against a reoriented copy
G = reference_group(octa())
g = random_rotation(np.random.default_rng(3))
H = materialize(octa(), g)
common = intersect(G, H)
print("O against a random copy of O intersects in:", recognize(common),
      f"({len(common)} elements)")

# the oracle result for the whole cell agrees with the closed form
print("closed form O+Z2c x D4^d:", clips("O+Z2c", "D4^d"))
print("matrix oracle         :", clips("O+Z2c", "D4^d", method="oracle"))
print("both (verified)       :", clips("O+Z2c", "D4^d", method="both"))
print()

# systematic sweep over a small parameter grid; each cell compares the
# symbolic table against the brute-force recomputation
ok = 0
for check in verify_cells(n_max=2, m_max=3):
    status = "ok" if check.match else "MISMATCH"
    print(f"{status:8s} {check.row} x {check.col}: {check.symbolic}")
    ok += check.match
print(f"{ok} matching cells")
