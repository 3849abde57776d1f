#!/usr/bin/env python3
"""Locating a spectral cliff with one extra triangularization.

The R diagonal of a single randomized factorization tracks the singular
values only loosely.  Factorizing that R a second time (an unpivoted QR
of its transpose, then reading the diagonal of the resulting triangle)
sharpens the estimates by orders of magnitude.  Here the test matrix has a clean rank
split: sigma_64 / sigma_65 = 1e10.
"""

import numpy as np

from mixfactor import gen_gap, qlp, rurv_ros


def main():
    m, k = 128, 64
    g = gen_gap(m, k, gap=1e-10, rng=3)

    one_pass = np.abs(np.diagonal(rurv_ros(g.a, 1, np.random.default_rng(3)).r))
    two_pass = qlp(g.a, first="rurv-ros", rng=np.random.default_rng(3)).l_values

    print(f"gap matrix, {m} x {m}, true sigma_{k}/sigma_{k + 1} = "
          f"{g.sigma[k - 1] / g.sigma[k]:.1e}\n")
    print(f"{'index':>6} {'sigma':>10} {'r diagonal':>11} {'l value':>10}")
    for i in list(range(k - 3, k + 3)):
        print(f"{i + 1:>6} {g.sigma[i]:10.2e} {one_pass[i]:11.2e} {two_pass[i]:10.2e}")

    print(f"\ndrop across the split, one pass:  {one_pass[k - 1] / one_pass[k]:.1e}")
    print(f"drop across the split, two passes: {two_pass[k - 1] / two_pass[k]:.1e}")


if __name__ == "__main__":
    main()
