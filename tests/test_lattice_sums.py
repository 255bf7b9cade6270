from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvekernel import lattice_sums, weierstrass


def _series(z, grid):
    """Un-telescoped zeta and p summands, summed over the grid at 30 digits."""
    with mp.workdps(30):
        z = mp.mpc(z)
        s_zeta = s_wp = mp.mpc(0)
        for w in grid:
            w = mp.mpc(w)
            s_zeta += 1 / (z - w) + sum(z**k / w ** (k + 1) for k in range(6))
            s_wp += 1 / (z - w) ** 2 - sum(k * z ** (k - 1) / w ** (k + 1) for k in range(1, 6))
        return complex(s_zeta), complex(s_wp)


def test_tail_sums_match_explicit_series():
    grid = weierstrass._grid(1.0, 0.3 + 1.1j, 8)
    rng = np.random.default_rng(0)
    z = rng.uniform(-0.6, 0.6, size=20) + 1j * rng.uniform(-0.6, 0.6, size=20)
    sz = lattice_sums.tail_sums(z, grid)
    sp = lattice_sums.tail_sums(z, grid, wp=True)
    # the kernel sums each pair {w, -w} at once; the reference sums both members
    ref = np.array([_series(zi, np.concatenate([grid, -grid])) for zi in z])
    assert_allclose(sz, ref[:, 0], rtol=0, atol=1e-13)
    assert_allclose(sp, ref[:, 1], rtol=0, atol=1e-13)


def test_shape_preservation():
    grid = weierstrass._grid(1.0, 0.3 + 1.1j, 8)
    z = np.array([[0.2 + 0.1j, 0.3 - 0.2j]])
    for wp in (False, True):
        s = lattice_sums.tail_sums(z, grid, wp=wp)
        assert s.shape == z.shape
        # a point's sum does not depend on the other points of the call
        assert s[0, 1] == lattice_sums.tail_sums(z[0, 1], grid, wp=wp)


def test_each_caller_forms_the_sum_it_reads(monkeypatch):
    # wzeta and the certificate read s_zeta, wp reads s_p
    calls = []

    def recording(z, w, wp=False):
        calls.append(wp)
        return lattice_sums.tail_sums(z, w, wp=wp)

    monkeypatch.setattr(weierstrass, "tail_sums", recording)
    lat = weierstrass.build_lattice(1.0, 0.3 + 1.1j)
    assert calls == [False]
    weierstrass.wzeta(lat, [0.2 + 0.1j, 0.3 - 0.2j])
    weierstrass.wp(lat, 0.2 + 0.1j)
    assert calls == [False, False, True]


@pytest.mark.parametrize("r1,r2,n", [(1.0, 0.3 + 1.1j, 8), (1.0, 5j, 16), (0.7 - 0.2j, 0.1 + 1.3j, 5)])
def test_grid_holds_one_site_of_each_pair(r1, r2, n):
    # negation is exact in floating point, so the sites compare exactly
    grid = weierstrass._grid(r1, r2, n)
    sites, negatives = set(grid.tolist()), set((-grid).tolist())
    m, k = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1), indexing="ij")
    box = set((m * r1 + k * r2).ravel().tolist()) - {0j}
    assert len(sites) == len(grid) == len(box) // 2
    assert not sites & negatives
    assert sites | negatives == box
