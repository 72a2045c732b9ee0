"""Fixed-point dimensions of elasticity tensors, computed from matrices.

An elasticity tensor C_ijkl has the minor symmetries ij <-> ji and
kl <-> lk and the major symmetry ij <-> kl, so the space Ela of them
is 21-dimensional.  A rotation or reflection g acts on a fourth-order
tensor by g ⊗ g ⊗ g ⊗ g, which commutes with the index permutations,
so averaging that action over a finite group H gives a projector onto
the H-invariant tensors, and on Ela its rank is dim Fix_Ela(H).  −Id
acts as (−1)^4 = 1, so H and H+Z2c have the same fixed space.

These dimensions are the numpy half of the argument that the generic
elasticity tensor has no rotation symmetry: a nontrivial rotation group
holds some Z_p of prime order, and SO(3) · Fix(Z_p) has dimension at
most 3 + dim Fix(Z_p), below 21 for every p (Z_p with p > 4 fixes what
SO(2) fixes).
"""

import numpy as np
import pytest

from o3clips.groups import materialize
from o3clips.labels import parse_label


def _ela_projector() -> np.ndarray:
    """The orthogonal projector of the 81-dimensional fourth-order
    tensors onto Ela: the mean of the 8 index permutations that the
    minor and major symmetries generate."""
    perms = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
             (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
    eye = np.eye(81).reshape(81, 3, 3, 3, 3)
    return np.mean([eye.transpose(0, *(1 + i for i in p)).reshape(81, 81)
                    for p in perms], axis=0)


ELA = _ela_projector()


def fixed_dim(text: str) -> int:
    """dim Fix_Ela(H): the rank of the group average of g⊗g⊗g⊗g on Ela."""
    mean = np.zeros((81, 81))
    elems = materialize(parse_label(text))
    for g in elems:
        gg = np.kron(g, g)
        mean += np.kron(gg, gg)
    return int(np.linalg.matrix_rank((mean / len(elems)) @ ELA, tol=1e-8))


def test_ela_is_21_dimensional():
    assert np.allclose(ELA @ ELA, ELA) and np.allclose(ELA, ELA.T)
    assert int(np.linalg.matrix_rank(ELA)) == 21


# dim Fix_Ela(H); D2, D3, D4 and O check the construction against the
# orthotropic (9), trigonal (6), tetragonal (6) and cubic (3) classes
FIXED_DIMS = {
    "1": 21, "1+Z2c": 21, "Z2": 13, "Z3": 7, "Z4": 7,
    "Z5": 5, "Z6": 5, "Z7": 5, "Z8": 5,
    "D2": 9, "D3": 6, "D4": 6, "O": 3,
}


@pytest.mark.parametrize("text", sorted(FIXED_DIMS))
def test_fixed_dimension(text):
    assert fixed_dim(text) == FIXED_DIMS[text]


def test_no_rotation_symmetry_for_a_generic_tensor():
    # SO(3) . Fix(Z_p) is at most 3 + dim Fix(Z_p) dimensional
    for n in range(2, 9):
        assert 3 + fixed_dim(f"Z{n}") < 21
