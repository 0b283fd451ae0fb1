"""Print the exact 2x2x2 characteristic polynomial of a fixed tensor set.

One line per tensor: C2 C4 C6 C8, then the ``is_singular_222`` verdict.
Run it on two source trees and compare the outputs, e.g.

    PYTHONPATH=src python tests/charpoly_sweep.py > new.txt
    PYTHONPATH=<other checkout>/src python tests/charpoly_sweep.py > old.txt
    cmp old.txt new.txt

The set: 1500 tensors of Gaussian rationals whose parts are p/q with
|p| <= 9 and q <= 7, 1500 with entries drawn from
{0, +-1, 2, +-i, 1/2, 1+i, -3/7}, the named tensors of test_exact.py,
and 30 tensors with x2 (A x^2)_1 - x1 (A x^2)_2 = 0.
"""

from fractions import Fraction

import numpy as np

from teneig.exact import GaussianRational as G, charpoly_exact_2_3, is_singular_222
from teneig.tensor import Tensor


def main():
    rng = np.random.default_rng(36)

    def q():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))

    tensors = [[G(q(), q()) for _ in range(8)] for _ in range(1500)]
    pool = [0, 1, -1, 2, G(0, 1), G(0, -1), G(Fraction(1, 2)), G(1, 1), G(Fraction(-3, 7))]
    tensors += [[pool[i] for i in rng.integers(0, len(pool), 8)] for _ in range(1500)]
    tensors += [
        [1, G(0, 1), 0, 0, 0, 0, 1, G(0, 1)],            # FINEPRINT
        [-1, 0, 0, -1, 1, -1, 0, G(1, -1)],              # LISTED
        [3, 0, 0, 0, 0, 0, 0, -7],                       # diag(3, -7)
        [0, 0, 0, -1, -1, 0, 1, -1],
        [G(Fraction(61, 49)), 1, 2, 1, G(Fraction(-3, 7)), 1, -1, 2],
        [0] * 8,
    ]
    for _ in range(30):  # A x^2 = (x1 L, x2 L) with L = c x1 + d x2
        c, d, e = (G(q(), q()) for _ in range(3))
        tensors.append([c, e, d - e, 0, 0, c - e, e, d])
    for vals in tensors:
        ent = tuple(G.coerce(v) for v in vals)
        A = Tensor(3, 2, np.array([v.to_complex() for v in ent]).reshape(2, 2, 2), exact=ent)
        coeffs = " ".join(str(c) for c in charpoly_exact_2_3(A).coefficients())
        print(f"{coeffs} | {is_singular_222(A)}")


if __name__ == "__main__":
    main()
