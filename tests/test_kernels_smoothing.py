import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcflr import smoothing
from vcflr.errors import InsufficientCenters, InsufficientLocalData
from vcflr.grids import make_grid
from vcflr.kernels import Kernel1D, kernel_eval
from vcflr.smoothing import (
    LocalFitConfig,
    local_linear_1d_at,
    local_linear_2d_at,
    local_linear_weights,
    lp_weights,
    smoothing_matrix,
    widen_until_fit,
)

FAMILIES = ["epanechnikov", "quartic", "uniform"]

# closed-form second moments of each kernel family
SECOND_MOMENT = {"epanechnikov": 0.2, "quartic": 1.0 / 7.0, "uniform": 1.0 / 3.0}


class TestKernels:
    def test_epanechnikov_values(self):
        k = Kernel1D("epanechnikov")
        assert kernel_eval(k, 0.0) == pytest.approx(0.75)
        assert kernel_eval(k, 2.0) == 0.0
        assert kernel_eval(k, -2.0) == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_moments_by_quadrature(self, family):
        k = Kernel1D(family)
        u = np.linspace(-1, 1, 1_000_001)
        vals = kernel_eval(k, u)
        mass = np.trapezoid(vals, u)
        first = np.trapezoid(u * vals, u)
        second = np.trapezoid(u * u * vals, u)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert first == pytest.approx(0.0, abs=1e-6)
        assert second == pytest.approx(SECOND_MOMENT[family], abs=1e-6)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_compact_support(self, family):
        k = Kernel1D(family)
        u = np.array([-5.0, -1.5, 1.0001, 3.0])
        assert np.all(kernel_eval(k, u) == 0.0)

    def test_product_kernel_mass(self):
        u = np.linspace(-1, 1, 2001)
        uu, vv = np.meshgrid(u, u, indexing="ij")
        vals = kernel_eval(Kernel1D("epanechnikov"), uu) * kernel_eval(Kernel1D("quartic"), vv)
        mass = np.trapezoid(np.trapezoid(vals, u, axis=1), u)
        assert mass == pytest.approx(1.0, abs=1e-5)
        mixed = np.trapezoid(np.trapezoid(uu * vv * vals, u, axis=1), u)
        assert mixed == pytest.approx(0.0, abs=1e-6)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            Kernel1D("gaussian")


class TestBandwidthChecks:
    """Every local fit rejects a non-positive or NaN bandwidth alike."""

    @pytest.mark.parametrize("b", [0.0, -1.0, float("nan"), (1.0, float("nan")), (-1.0, 1.0)])
    def test_local_fit_config(self, b):
        with pytest.raises(ValueError, match="strictly positive"):
            LocalFitConfig(b)

    @pytest.mark.parametrize("b", [(1.0, 2.0), [1.0, 2.0]])
    def test_pair_widens_on_both_axes(self, b):
        assert LocalFitConfig(b).widened(1.5).bandwidth == (1.5, 3.0)

    @pytest.mark.parametrize("b", [0.0, -1.0, float("nan")])
    def test_1d_smoother(self, b):
        x = np.linspace(0, 1, 20)
        with pytest.raises(ValueError, match="strictly positive"):
            local_linear_1d_at(x, x, x, b)

    @pytest.mark.parametrize("b", [(-1.0, 1.0), (1.0, 0.0), (float("nan"), 1.0)])
    def test_2d_smoother(self, b):
        rng = np.random.default_rng(5)
        x1, x2 = rng.uniform(0, 1, (2, 50))
        g = make_grid(0, 1, 5).points
        with pytest.raises(ValueError, match="strictly positive"):
            local_linear_2d_at(x1, x2, x1 + x2, g, g, b)


def oracle_local_linear_1d(x, y, s, b, kernel):
    """Independent direct 2x2 weighted normal-equations solve."""
    w = kernel_eval(kernel, (x - s) / b)
    X = np.column_stack([np.ones_like(x), x - s])
    A = (X * w[:, None]).T @ X
    c = (X * w[:, None]).T @ y
    return np.linalg.solve(A, c)[0]


class TestLocalLinear1D:
    def test_reproduces_line_any_bandwidth(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 10, 200)
        y = 2.0 + 3.0 * x
        grid = make_grid(0, 10, 21)
        for b in (0.5, 1.7, 40.0):
            curve = local_linear_1d_at(x, y, grid.points, b)
            assert np.allclose(curve, 2.0 + 3.0 * grid.points, atol=1e-9)

    def test_identical_x_insufficient(self):
        x = np.array([2.0, 2.0, 2.0])
        y = np.array([1.0, 1.5, 0.5])
        with pytest.raises(InsufficientLocalData):
            local_linear_1d_at(x, y, make_grid(0, 4, 5).points, 1.0)

    def test_matches_direct_solve_on_sine(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 2 * np.pi, 200)
        y = np.sin(x) + rng.normal(0, 0.3, 200)
        grid = make_grid(0, 2 * np.pi, 25)
        kernel = Kernel1D()
        got = local_linear_1d_at(x, y, grid.points, 0.5, kernel=kernel)
        want = [oracle_local_linear_1d(x, y, s, 0.5, kernel) for s in grid.points]
        assert np.allclose(got, want, atol=1e-10)

    def test_multiplicity_weights_match_replication(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 30)
        y = rng.normal(size=30)
        reps = rng.integers(1, 4, size=30)
        x_full = np.repeat(x, reps)
        y_full = np.repeat(y, reps)
        s = np.linspace(0, 1, 9)
        a = local_linear_1d_at(x_full, y_full, s, 0.4)
        b = local_linear_1d_at(x, y, s, 0.4, weights=reps.astype(float))
        assert np.allclose(a, b, atol=1e-10)

    def test_widening_recovers(self):
        # two tight clusters: b=0.1 fails at midpoints, widening succeeds
        x = np.array([0.0, 0.05, 1.0, 1.05])
        y = 1.0 + 2.0 * x
        grid = make_grid(0, 1, 11)

        def attempt(cfg):
            return local_linear_1d_at(x, y, grid.points, cfg.bandwidth)

        curve = widen_until_fit(attempt, LocalFitConfig(0.1))
        assert np.allclose(curve, 1 + 2 * grid.points, atol=1e-9)


def oracle_local_linear_2d(x1, x2, y, s1, s2, b, kernel):
    w = kernel_eval(kernel, np.asarray(x1 - s1) / b[0]) \
        * kernel_eval(kernel, np.asarray(x2 - s2) / b[1])
    X = np.column_stack([np.ones_like(x1), x1 - s1, x2 - s2])
    A = (X * w[:, None]).T @ X
    c = (X * w[:, None]).T @ y
    return np.linalg.solve(A, c)[0]


class TestLocalLinear2D:
    def test_reproduces_affine_surface(self):
        rng = np.random.default_rng(8)
        x1 = rng.uniform(0, 10, 150)
        x2 = rng.uniform(0, 10, 150)
        y = 1.0 + 2.0 * x1 - x2
        g = make_grid(0, 10, 11)
        surf = local_linear_2d_at(x1, x2, y, g.points, g.points, (3.0, 3.0))
        want = 1.0 + 2.0 * g.points[:, None] - g.points[None, :]
        assert np.allclose(surf, want, atol=1e-9)

    def test_single_location_insufficient(self):
        ones = np.ones(5)
        g = make_grid(0, 2, 3).points
        with pytest.raises(InsufficientLocalData):
            local_linear_2d_at(ones, ones, 2.0 * ones, g, g, (5.0, 5.0))

    def test_collinear_locations_insufficient(self):
        # all points on the line x1 = x2: affinely dependent design
        t = np.linspace(0, 2, 8)
        g = make_grid(0, 2, 3).points
        with pytest.raises(InsufficientLocalData):
            local_linear_2d_at(t, t, 1.0 + t, g, g, (5.0, 5.0))

    def test_matches_direct_solve_on_cosine(self):
        rng = np.random.default_rng(9)
        n = 400
        x1 = rng.uniform(0, 3, n)
        x2 = rng.uniform(0, 3, n)
        y = np.cos(x1) * np.cos(x2) + rng.normal(0, 0.2, n)
        g1 = make_grid(0, 3, 7)
        g2 = make_grid(0, 3, 6)
        kern = Kernel1D()
        got = local_linear_2d_at(x1, x2, y, g1.points, g2.points, (0.8, 0.8),
                                 kernel=kern)
        for i, s1 in enumerate(g1.points):
            for j, s2 in enumerate(g2.points):
                want = oracle_local_linear_2d(x1, x2, y, s1, s2, (0.8, 0.8), kern)
                assert got[i, j] == pytest.approx(want, abs=1e-10)

    def test_chunking_invariance(self, monkeypatch):
        rng = np.random.default_rng(10)
        n = 300
        x1 = rng.uniform(0, 1, n)
        x2 = rng.uniform(0, 1, n)
        y = rng.normal(size=n)
        g = make_grid(0, 1, 5)
        b = local_linear_2d_at(x1, x2, y, g.points, g.points, (0.5, 0.5))
        # five evaluation points per axis and five products per point:
        # blocks of 37 data points
        monkeypatch.setattr(smoothing, "_BLOCK", 5 * 5 * 37)
        a = local_linear_2d_at(x1, x2, y, g.points, g.points, (0.5, 0.5))
        assert np.allclose(a, b, atol=1e-12)


class TestTiledLocalLinear2D:
    """Inputs of about 6000 points, split into tiles, each in several blocks."""

    N = 6000
    BLOCK = 200   # kernel weights per block: a tile of ~240 points in 2+ blocks

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(smoothing, "_BLOCK", self.BLOCK)

    def data(self, seed, lattice=False):
        rng = np.random.default_rng(seed)
        x1, x2 = rng.uniform(0, 10, (2, self.N))
        if lattice:   # x1 multiples of 0.25: exact distances to a 0.25 grid
            x1 = rng.integers(0, 41, self.N) * 0.25
        y = np.sin(x1) * np.cos(0.5 * x2) + rng.normal(0, 0.3, self.N)
        return x1, x2, y

    def check(self, x1, x2, y, e1, e2, b, kern):
        # the premise: scattered points, several tiles per axis, several
        # blocks per tile
        assert smoothing._lattice_codes(x1, x2) is None
        cap = math.isqrt(self.N // smoothing._TILE_POINTS_2D)
        k1, k2 = min(cap, int(np.ptp(x1) / b[0])), min(cap, int(np.ptp(x2) / b[1]))
        assert min(k1, k2) >= 2
        _, blocks = smoothing._support_tiles((x1, x2), (np.sort(e1), np.sort(e2)), b,
                                             smoothing._TILE_POINTS_2D)
        assert len(blocks) > k1 * k2
        got = local_linear_2d_at(x1, x2, y, e1, e2, b, kernel=kern)
        want = np.array([[oracle_local_linear_2d(x1, x2, y, s1, s2, b, kern) for s2 in e2]
                         for s1 in e1])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_unsorted_eval_points(self):
        rng = np.random.default_rng(61)
        e1 = rng.permutation(make_grid(0, 10, 13).points)
        e2 = rng.permutation(make_grid(0, 10, 9).points)
        self.check(*self.data(61), e1, e2, (1.5, 2.0), Kernel1D())

    def test_eval_points_outside_data_range(self):
        e = np.array([-1.0, -0.3, 4.9, 10.4, 11.0])
        self.check(*self.data(62), e, e[::-1], (1.5, 1.5), Kernel1D())

    def test_bandwidth_below_grid_spacing(self):
        e = make_grid(0, 10, 11).points   # spacing 1.0
        self.check(*self.data(63), e, e, (0.6, 0.7), Kernel1D("quartic"))

    def test_uniform_kernel_closed_support(self):
        # x1 lattice points sit exactly b = 0.5 from grid points, cell edges
        # included, where the uniform kernel still weighs them
        e = make_grid(0, 10, 41).points
        uni = Kernel1D("uniform")
        self.check(*self.data(64, lattice=True), e, e, (0.5, 0.5), uni)

    def test_gap_in_data_insufficient(self):
        x1, x2, y = self.data(65)
        hole = (np.abs(x1 - 5.0) < 1.5) & (np.abs(x2 - 5.0) < 1.5)
        e = make_grid(0, 10, 11).points
        with pytest.raises(InsufficientLocalData, match="only 0 point"):
            local_linear_2d_at(x1[~hole], x2[~hole], y[~hole], e, e, (1.2, 1.2))

    def test_collinear_design_insufficient(self):
        # every point on the line x2 = 5: plenty of points, no affine spread
        x1, _, y = self.data(66)
        x2 = np.full(self.N, 5.0)
        with pytest.raises(InsufficientLocalData, match="degenerate"):
            local_linear_2d_at(x1, x2, y, make_grid(0, 10, 11).points,
                               np.array([4.5, 5.0, 5.5]), (1.5, 1.5))


class TestLocalLinear2DAgainstOracle:
    """The tiled moments and the closed-form intercept against the direct
    3x3 solve, from one tile to many, with multiplicity weights."""

    @staticmethod
    def oracle_support(x1, x2, w, s1, s2, b, kern):
        """Weighted points in the window and their centred determinant
        relative to b1² b2² at (s1, s2)."""
        k = kernel_eval(kern, np.asarray(x1 - s1) / b[0]) \
            * kernel_eval(kern, np.asarray(x2 - s2) / b[1]) * w
        on = k > 0
        if k.sum() == 0:
            return 0, 0.0
        m1, m2 = (k @ x1) / k.sum(), (k @ x2) / k.sum()
        v11 = k @ (x1 - m1) ** 2 / k.sum()
        v22 = k @ (x2 - m2) ** 2 / k.sum()
        v12 = k @ ((x1 - m1) * (x2 - m2)) / k.sum()
        return int(on.sum()), (v11 * v22 - v12 * v12) / (b[0] * b[1]) ** 2

    @given(n=st.integers(30, 6000), frac=st.floats(0.05, 1.0),
           aspect=st.floats(0.7, 1.0), family=st.sampled_from(FAMILIES),
           weighted=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_solve(self, n, frac, aspect, family, weighted, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = rng.uniform(0, 10, (2, n))
        y = np.sin(x1) * np.cos(0.5 * x2) + rng.normal(0, 0.3, n)
        w = rng.integers(1, 4, n).astype(float) if weighted else np.ones(n)
        b = (10.0 * frac, 10.0 * frac * aspect)
        kern = Kernel1D(family)
        e1, e2 = make_grid(0, 10, 7).points, make_grid(0, 10, 6).points
        try:
            got = local_linear_2d_at(x1, x2, y, e1, e2, b, kernel=kern,
                                     weights=w if weighted else None)
        except InsufficientLocalData:
            # some point lacks three weighted points or affine spread
            support = [self.oracle_support(x1, x2, w, s1, s2, b, kern)
                       for s1 in e1 for s2 in e2]
            assert any(count < 3 or cdet <= 2e-13 for count, cdet in support)
            return
        reps = w.astype(int)
        r1, r2, ry = np.repeat(x1, reps), np.repeat(x2, reps), np.repeat(y, reps)
        want = np.array([[oracle_local_linear_2d(r1, r2, ry, s1, s2, b, kern) for s2 in e2]
                         for s1 in e1])
        assert np.allclose(got, want, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("n", [300, 6000])
    def test_column_stack_matches_per_column_calls(self, n, monkeypatch):
        # one tile, then several tiles in several blocks
        monkeypatch.setattr(smoothing, "_BLOCK", 5000)
        rng = np.random.default_rng(77)
        x1, x2 = rng.uniform(0, 10, (2, n))
        w = rng.integers(0, 3, (n, 4)).astype(float)   # zeros: absent locations
        y = (np.sin(x1) * np.cos(0.5 * x2))[:, None] + rng.normal(0, 0.3, (n, 4))
        e1, e2, b = make_grid(0, 10, 9).points, make_grid(0, 10, 7).points, (2.5, 2.0)
        got = local_linear_2d_at(x1, x2, y, e1[::-1], e2, b, weights=w)
        assert got.shape == (9, 7, 4)
        for f in range(4):
            on = w[:, f] > 0
            want = local_linear_2d_at(x1[on], x2[on], y[on, f], e1[::-1], e2, b,
                                      weights=w[on, f])
            assert np.allclose(got[..., f], want, rtol=1e-12, atol=1e-12)
        one = local_linear_2d_at(x1, x2, y[:, :1], e1, e2, b, weights=w[:, :1])
        assert one.shape == (9, 7, 1)
        assert np.allclose(one[..., 0], local_linear_2d_at(x1, x2, y[:, 0], e1, e2, b,
                                                           weights=w[:, 0]),
                           rtol=1e-13, atol=1e-13)

    def test_failing_column_raises(self):
        # column 1 only observes x1 < 6: its own call fails, and the stack
        # names it; the other columns fit
        rng = np.random.default_rng(78)
        x1, x2 = rng.uniform(0, 10, (2, 2000))
        w = np.ones((2000, 3))
        w[x1 >= 6.0, 1] = 0.0
        y = rng.normal(size=(2000, 3))
        e = make_grid(0, 10, 6).points
        on = w[:, 1] > 0
        with pytest.raises(InsufficientLocalData, match="only 0 point"):
            local_linear_2d_at(x1[on], x2[on], y[on, 1], e, e, (1.5, 1.5))
        with pytest.raises(InsufficientLocalData, match="only 0 point.* in column 1"):
            local_linear_2d_at(x1, x2, y, e, e, (1.5, 1.5), weights=w)
        local_linear_2d_at(x1, x2, y[:, [0, 2]], e, e, (1.5, 1.5), weights=w[:, [0, 2]])

    @pytest.mark.parametrize("jitter", [0.0, 1e-9])
    def test_near_collinear_design_is_degenerate(self, jitter):
        # points on the line x2 = 1 + 0.5 x1, off it by at most the jitter:
        # the 3x3 system is near-singular, and the degenerate check rejects it
        rng = np.random.default_rng(70)
        x1 = rng.uniform(0, 10, 500)
        x2 = 1.0 + 0.5 * x1 + rng.uniform(-jitter, jitter, 500)
        with pytest.raises(InsufficientLocalData, match="degenerate"):
            local_linear_2d_at(x1, x2, np.cos(x1), make_grid(0, 10, 11).points,
                               np.array([2.5, 3.5]), (4.0, 4.0))

    @pytest.mark.parametrize("jitter", [0.0, 1e-8])
    def test_two_jittered_locations_are_degenerate(self, jitter):
        rng = np.random.default_rng(71)
        x1 = np.repeat([4.0, 5.0], 50) + rng.uniform(-jitter, jitter, 100)
        x2 = np.repeat([4.5, 5.5], 50) + rng.uniform(-jitter, jitter, 100)
        g = np.array([4.0, 4.5, 5.0])
        with pytest.raises(InsufficientLocalData, match="degenerate"):
            local_linear_2d_at(x1, x2, rng.normal(size=100), g, g, (3.0, 3.0))


def lattice_fits(monkeypatch, call):
    """``call()`` with the moments formed on the lattice and in support
    tiles: each result, or the message of the InsufficientLocalData it
    raised."""
    def codes(x1, x2):
        return np.unique(x1, return_inverse=True), np.unique(x2, return_inverse=True)

    out = []
    for force in (codes, lambda x1, x2: None):
        monkeypatch.setattr(smoothing, "_lattice_codes", force)
        try:
            out.append(call())
        except InsufficientLocalData as err:
            out.append(str(err))
    return out


@st.composite
def lattice_points(draw):
    """Points at integer multiples of a spacing per axis: a thinned k1 x k2
    lattice, with its diagonal removed or not, some cells repeated, and F
    columns of integer multiplicities, zero marking an absent point."""
    k1, k2 = draw(st.integers(3, 16)), draw(st.integers(3, 16))
    h1, h2 = draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 1.0])), \
        draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i1, i2 = (a.ravel() for a in np.meshgrid(np.arange(k1), np.arange(k2), indexing="ij"))
    if draw(st.booleans()):   # a covariance's pairs leave out the diagonal
        i1, i2 = i1[i1 != i2], i2[i1 != i2]
    # at least 40% of the lattice: fill over 0.25 with the diagonal gone
    keep = rng.permutation(i1.size)[:max(3, math.ceil(draw(st.floats(0.4, 1.0)) * i1.size))]
    keep = np.concatenate([keep, rng.choice(keep, draw(st.integers(0, 20)))])
    x1, x2 = i1[keep] * h1, i2[keep] * h2
    n_cols = draw(st.integers(1, 4))
    w = rng.integers(0 if n_cols > 1 else 1, 4, (keep.size, n_cols)).astype(float)
    if n_cols > 1 and draw(st.booleans()):
        w[rng.permutation(keep.size)[:keep.size // 3], 0] = 0.0   # a fold's held-out rows
    y = np.sin(x1 / (k1 * h1) * 3)[:, None] * np.cos(x2 / (k2 * h2) * 2)[:, None] \
        + rng.normal(0, 0.3, w.shape)
    return x1, x2, y, w, (k1 * h1, k2 * h2)


class TestLatticeLocalLinear2D:
    """Points on a lattice of distinct coordinates (a regular design's pairs)
    get their moments as A_j W B_k^T over that lattice: the same fits, the
    same support counts and the same failures as the support tiles."""

    @given(drawn=lattice_points(), frac=st.floats(0.1, 1.0),
           family=st.sampled_from(FAMILIES))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_solve(self, drawn, frac, family):
        x1, x2, y, w, (l1, l2) = drawn
        assert smoothing._lattice_codes(x1, x2) is not None
        b = (l1 * frac, l2 * frac)
        kern = Kernel1D(family)
        e1, e2 = np.linspace(0, l1, 7), np.linspace(0, l2, 6)
        try:
            got = local_linear_2d_at(x1, x2, y, e1, e2, b, kernel=kern, weights=w)
        except InsufficientLocalData:
            support = [TestLocalLinear2DAgainstOracle.oracle_support(
                x1, x2, w[:, f], s1, s2, b, kern)
                for f in range(w.shape[1]) for s1 in e1 for s2 in e2]
            assert any(count < 3 or cdet <= 2e-13 for count, cdet in support)
            return
        for f in range(w.shape[1]):
            reps = w[:, f].astype(int)
            r1, r2, ry = np.repeat(x1, reps), np.repeat(x2, reps), np.repeat(y[:, f], reps)
            want = np.array([[oracle_local_linear_2d(r1, r2, ry, s1, s2, b, kern)
                              for s2 in e2] for s1 in e1])
            assert np.allclose(got[..., f], want, rtol=1e-8, atol=1e-8)

    @given(drawn=lattice_points(), frac=st.floats(0.1, 1.0),
           family=st.sampled_from(FAMILIES))
    @settings(max_examples=60, deadline=None)
    def test_moments_match_tiles(self, drawn, frac, family):
        x1, x2, y, w, (l1, l2) = drawn
        b = (l1 * frac, l2 * frac)
        kern = Kernel1D(family)
        e1, e2 = np.linspace(-0.1 * l1, l1, 9), np.linspace(0, 1.1 * l2, 8)
        lat, lat_count = smoothing._lattice_moments(smoothing._lattice_codes(x1, x2), y, w,
                                                    e1, e2, b, kern)
        tiled, tiled_count = smoothing._tiled_moments(x1, x2, y, w, e1, e2, b, kern)
        assert np.array_equal(lat_count, tiled_count)
        for got, want in zip(lat, tiled):
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)

    @pytest.mark.parametrize("case", ["single", "collinear", "two", "sparse corner"])
    def test_raises_alike(self, case, monkeypatch):
        g = np.array([0.0, 1.0, 2.0])
        x1, x2 = {
            "single": (np.ones(5), np.ones(5)),
            "collinear": (np.arange(8) * 0.25, np.arange(8) * 0.25),
            "two": (np.repeat([0.5, 1.5], 4), np.repeat([1.0, 2.0], 4)),
            # a 3 x 3 lattice with two points where the window at (0, 0) reaches
            "sparse corner": (np.array([0.0, 0.5, 2.0, 2.0, 1.5, 2.0]),
                              np.array([0.5, 0.0, 2.0, 1.5, 2.0, 0.5])),
        }[case]
        y = 1.0 + x1 - x2
        got = lattice_fits(monkeypatch, lambda: local_linear_2d_at(
            x1, x2, y, g, g, (0.8, 0.8) if case == "sparse corner" else (5.0, 5.0)))
        assert isinstance(got[0], str) and got[0] == got[1]

    def test_uniform_kernel_closed_support(self, monkeypatch):
        # 6000 points on a 41 x 41 lattice of multiples of 0.25 sit exactly
        # b = 0.5 from grid points, where the uniform kernel still weighs them
        rng = np.random.default_rng(64)
        x1, x2 = rng.integers(0, 41, (2, 6000)) * 0.25
        y = np.sin(x1) * np.cos(0.5 * x2) + rng.normal(0, 0.3, 6000)
        e = make_grid(0, 10, 41).points
        kern = Kernel1D("uniform")
        assert smoothing._lattice_codes(x1, x2) is not None
        got = local_linear_2d_at(x1, x2, y, e, e, (0.5, 0.5), kernel=kern)
        want = np.array([[oracle_local_linear_2d(x1, x2, y, s1, s2, (0.5, 0.5), kern)
                          for s2 in e] for s1 in e])
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
        lattice, tiled = lattice_fits(monkeypatch, lambda: local_linear_2d_at(
            x1, x2, y, e, e, (0.5, 0.5), kernel=kern))
        assert np.abs(lattice - tiled).max() <= 1e-13 * np.abs(tiled).max()


def unfold(x1, x2, y, w):
    """Full rows of mirrored half rows: each x1 < x2 row and its mirror,
    and each x1 == x2 row at twice its multiplicity."""
    off = x1 != x2
    factor = np.where(off, 1.0, 2.0).reshape((-1,) + (1,) * (w.ndim - 1))
    return (np.concatenate([x1, x2[off]]), np.concatenate([x2, x1[off]]),
            np.concatenate([y, y[off]]), np.concatenate([w * factor, w[off]]))


class TestMirroredRows:
    """A covariance's j < l rows with ``mirror`` fit the surface of all its
    rows: the same support counts, the same failures at every widening
    step and the same surfaces to rounding, on either moment path."""

    @staticmethod
    def rows(case):
        """Grouped half rows (x1 <= x2), folds of multiplicities with held-out
        zeros, and the evaluation grids."""
        rng = np.random.default_rng(150)
        if case == "lattice":   # every j < l of one 31-point vector
            x1, x2 = np.triu_indices(31, 1)
            x1, x2 = x1 / 3.0, x2 / 3.0
        else:   # scattered times, times rounded to 0.5, or a mixture
            t = rng.uniform(0, 10, (2, 1000))
            if case == "rounded":
                t = np.round(t * 2) / 2
            elif case == "uniform":
                t[:, :300] = np.round(t[:, :300] * 2) / 2
            x1, x2 = np.unique(np.column_stack([t.min(axis=0), t.max(axis=0)]), axis=0).T
        y = (np.cos(0.3 * x1) * np.cos(0.3 * x2))[:, None] + rng.normal(0, 0.2, (x1.size, 3))
        w = rng.integers(1, 4, (x1.size, 3)).astype(float)
        w[rng.permutation(x1.size)[:x1.size // 3], 1] = 0.0
        e = make_grid(0, 10, 21).points
        return x1, x2, y, w, e

    @staticmethod
    def fit_and_count(monkeypatch, call):
        """``call()``'s surface, or the message it raised, and the moments
        and support count it formed."""
        formed = []
        real = smoothing._moments

        def recording(*args):
            formed.append(real(*args))
            return formed[-1]

        monkeypatch.setattr(smoothing, "_moments", recording)
        try:
            got = call()
        except InsufficientLocalData as err:
            got = str(err)
        monkeypatch.setattr(smoothing, "_moments", real)
        return got, formed[-1]

    @pytest.mark.parametrize("case, family, axes", [
        ("scattered", "epanechnikov", 1.0), ("lattice", "epanechnikov", 1.0),
        ("rounded", "quartic", 1.0), ("uniform", "uniform", 1.0),
        ("scattered", "quartic", 1.5), ("rounded", "epanechnikov", 0.75)])
    def test_matches_unfolded_rows(self, monkeypatch, case, family, axes):
        x1, x2, y, w, e = self.rows(case)
        lattice = smoothing._lattice_codes(x1, x2) is not None
        assert lattice == (case in ("lattice", "rounded"))
        assert np.any(x1 == x2) == (case in ("rounded", "uniform"))
        kern = Kernel1D(family)
        e2 = e if axes == 1.0 else e[::2]
        full = unfold(x1, x2, y, w)
        raised = []
        b = 0.5   # on the uniform kernel's closed support, rounded times lie b from e
        for _ in range(smoothing._WIDEN_ATTEMPTS + 1):   # the widening steps
            bw = (b, b * axes)
            half, (half_moments, half_count) = self.fit_and_count(
                monkeypatch, lambda: local_linear_2d_at(x1, x2, y, e, e2, bw, kernel=kern,
                                                        weights=w, mirror=True))
            want, (moments, count) = self.fit_and_count(
                monkeypatch, lambda: local_linear_2d_at(*full[:3], e, e2, bw, kernel=kern,
                                                        weights=full[3]))
            assert np.array_equal(half_count, count)
            for got_m, want_m in zip(half_moments, moments):
                assert np.abs(got_m - want_m).max() <= 1e-13 * np.abs(want_m).max()
            raised.append(isinstance(want, str))
            if raised[-1]:
                assert half == want
            elif axes == 1.0:
                # unequal axes put a corner of the scattered rows' surface on
                # three points (centred determinant 1.2e-6 b1² b2²), which
                # turns one-ulp moment differences into 2.5e-12 of the fit
                assert np.abs(half - want).max() <= 1e-13 * np.abs(want).max()
            b *= smoothing._WIDEN_FACTOR
        assert raised[0] and not raised[-1]   # some steps fail, the widest fits

    def test_one_point_column_names_its_count(self):
        # a single row off the diagonal is two points, on it one
        e = np.array([1.0, 2.0])
        for x, count in ((2.0, 2), (1.0, 1)):
            with pytest.raises(InsufficientLocalData, match=f"only {count} point"):
                local_linear_2d_at(np.array([1.0]), np.array([x]), np.array([0.5]), e, e,
                                   (5.0, 5.0), mirror=True)

    def test_rows_below_the_diagonal_rejected(self):
        e = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="x1 <= x2"):
            local_linear_2d_at(np.array([0.0, 1.0, 0.5]), np.array([1.0, 0.0, 0.7]),
                               np.ones(3), e, e, (2.0, 2.0), mirror=True)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_no_points_insufficient(self, mirror):
        e = np.array([0.0, 1.0])
        with pytest.raises(InsufficientLocalData, match="no data"):
            local_linear_2d_at(np.empty(0), np.empty(0), np.empty(0), e, e, (1.0, 1.0),
                               weights=np.empty((0, 3)), mirror=mirror)


class TestLocalLinear1DColumns:
    """A (U, F) stack of columns is F independent fits at shared locations."""

    def columns(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 10, 60))
        w = rng.integers(0, 4, (60, 4)).astype(float)   # zeros: absent locations
        y = np.sin(x)[:, None] + rng.normal(0, 0.3, (60, 4))
        return x, y, w

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_per_column_calls(self, family):
        x, y, w = self.columns(72)
        s = make_grid(0, 10, 21).points
        kern = Kernel1D(family)
        got = local_linear_1d_at(x, y, s, 1.5, kernel=kern, weights=w)
        assert got.shape == (21, 4)
        for f in range(4):
            on = w[:, f] > 0
            want = local_linear_1d_at(x[on], y[on, f], s, 1.5, kernel=kern, weights=w[on, f])
            assert np.allclose(got[:, f], want, rtol=1e-12, atol=1e-12)

    def test_one_column_is_the_plain_call(self):
        x, y, w = self.columns(73)
        s = make_grid(0, 10, 21).points
        got = local_linear_1d_at(x, y[:, :1], s, 1.5, weights=w[:, :1])
        assert got.shape == (21, 1)
        assert np.allclose(got[:, 0], local_linear_1d_at(x, y[:, 0], s, 1.5, weights=w[:, 0]),
                           rtol=1e-13, atol=1e-13)

    def test_column_failing_its_support_check_raises(self):
        # column 2 only observes s < 3: two locations are present elsewhere in
        # the stack but absent from it, so its own check fails, as its own call does
        x, y, w = self.columns(74)
        w[x >= 3.0, 2] = 0.0
        s = make_grid(0, 10, 21).points
        on = w[:, 2] > 0
        with pytest.raises(InsufficientLocalData):
            local_linear_1d_at(x[on], y[on, 2], s, 1.5, weights=w[on, 2])
        with pytest.raises(InsufficientLocalData, match="in column 2"):
            local_linear_1d_at(x, y, s, 1.5, weights=w)
        keep = [0, 1, 3]
        local_linear_1d_at(x, y[:, keep], s, 1.5, weights=w[:, keep])

    @pytest.mark.parametrize("n", [60, 5000])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_tiled_matches_dense_oracle(self, n, family, monkeypatch):
        """From one tile to several, each in several blocks: every column
        against the direct solve of its present points, replicated."""
        monkeypatch.setattr(smoothing, "_BLOCK", 2000)
        rng = np.random.default_rng(75)
        # multiples of 0.125: exact distances b to grid points, where the
        # uniform kernel still weighs them
        x = rng.integers(0, 81, n) * 0.125
        w = rng.integers(0, 3, (n, 3)).astype(float)   # zeros: absent points
        y = np.sin(x)[:, None] + rng.normal(0, 0.3, (n, 3))
        s, b, kern = make_grid(0, 10, 41).points, 1.0 if n > 1000 else 2.0, Kernel1D(family)
        tiles = min(n // smoothing._TILE_POINTS_1D, int(np.ptp(x) / b))
        assert tiles >= 3 if n > 1000 else tiles <= 1
        got = local_linear_1d_at(x, y, s, b, kernel=kern, weights=w)
        for f in range(3):
            reps = w[:, f].astype(int)
            r, ry = np.repeat(x, reps), np.repeat(y[:, f], reps)
            want = [oracle_local_linear_1d(r, ry, si, b, kern) for si in s]
            assert np.allclose(got[:, f], want, rtol=1e-10, atol=1e-10)
        # a gap of 3b in column 1 fails its own support check, and only its
        w[np.abs(x - 5.0) < 1.5 * b, 1] = 0.0
        with pytest.raises(InsufficientLocalData, match="in column 1"):
            local_linear_1d_at(x, y, s, b, kernel=kern, weights=w)
        local_linear_1d_at(x, y[:, [0, 2]], s, b, kernel=kern, weights=w[:, [0, 2]])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_support_counts_match_per_column_unique(self, family):
        """One prefix count for every bandwidth and column gives the
        integers of counting each column's distinct present x on its own."""
        rng = np.random.default_rng(76)
        # unsorted, repeated multiples of 0.125: some exactly b from a grid point
        x = rng.integers(0, 81, 400) * 0.125
        w = rng.integers(0, 3, (400, 3)).astype(float)
        s = make_grid(0, 10, 41).points
        bands = (0.25, 1.0, 2.0)
        closed = Kernel1D(family).closed_support
        got = smoothing._column_support(x, w, s, bands, closed)
        assert got.shape == (3, 41, 3)
        for c, b in enumerate(bands):
            for f in range(3):
                want = smoothing._support_counts(np.unique(x[w[:, f] > 0]), s, b, closed)
                assert np.array_equal(got[c, :, f], want)
        assert not smoothing._column_support(np.empty(0), np.empty((0, 2)), s, (1.0,),
                                             closed).any()


def oracle_lp_weights(q, r, centers, z, b, kernel):
    """Direct matrix-formula evaluation."""
    import math
    d = centers - z
    kb = kernel_eval(kernel, d / b) / b
    C = np.vander(d, r + 1, increasing=True)
    W = np.diag(kb)
    inv = np.linalg.inv(C.T @ W @ C)
    e = np.zeros(r + 1)
    e[q] = 1.0
    return np.array([
        math.factorial(q) * e @ inv @ C[p] * kb[p] for p in range(len(centers))
    ])


class TestLpWeights:
    def test_moment_conditions_basic(self):
        centers = np.linspace(0.05, 0.95, 10)
        w = lp_weights(0, 1, centers, 0.4, 0.3)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w @ (centers - 0.4)) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_limit_interpolates_center(self):
        centers = np.linspace(0.125, 0.875, 4)
        w = lp_weights(0, 1, centers, centers[2], 1e-9)
        want = np.zeros(4)
        want[2] = 1.0
        assert np.allclose(w, want, atol=1e-12)

    def test_matches_direct_formula(self):
        centers = np.arange(0.1, 0.95, 0.1)
        z, b = 0.5, 0.25
        got = lp_weights(0, 1, centers, z, b)
        want = oracle_lp_weights(0, 1, centers, z, b, Kernel1D())
        assert np.allclose(got, want, atol=1e-12)
        # symmetric configuration about the middle center
        assert np.allclose(got, got[::-1], atol=1e-12)

    def test_no_weighted_center_errors(self):
        centers = np.array([0.0, 1.0])
        with pytest.raises(InsufficientCenters):
            lp_weights(0, 1, centers, 0.5, 0.1)

    def test_derivative_needs_enough_centers(self):
        centers = np.array([0.0, 1.0])
        with pytest.raises(InsufficientCenters):
            lp_weights(1, 1, centers, 0.0, 0.5)   # one weighted center, q = 1

    def test_tiny_weight_center_keeps_moments(self):
        # widened rows where the second weighted center's weight is ~1e-31:
        # a design not centred at the heavy center missed z by up to 1.6e-2
        centers = np.array([-0.625, 0.125, 0.875, 1.625])
        kernel = Kernel1D("quartic")
        checked = 0
        for z in np.linspace(-1.0, 2.0, 3001):
            used = []

            def attempt(c):
                used.append(float(c.bandwidth))
                return lp_weights(0, 1, centers, z, used[-1], kernel)

            w = widen_until_fit(attempt, LocalFitConfig(0.2, kernel))
            if np.count_nonzero(kernel_eval(kernel, (centers - z) / used[-1]) > 0) < 2:
                continue
            assert abs(w.sum() - 1.0) <= 1e-12, z
            assert abs(w @ centers - z) <= 1e-12, z
            checked += 1
        assert checked > 400

    def test_derivative_weights(self):
        centers = np.linspace(0, 1, 9)
        w = lp_weights(1, 2, centers, 0.5, 0.4)
        d = centers - 0.5
        assert w.sum() == pytest.approx(0.0, abs=1e-9)
        assert (w @ d) == pytest.approx(1.0, abs=1e-9)
        assert (w @ d**2) == pytest.approx(0.0, abs=1e-9)


class TestLocalLinearWeights:
    CENTERS = np.array([0.05, 0.15, 0.3, 0.5, 0.7, 0.95])

    def reference(self, z, b, kernel):
        return widen_until_fit(
            lambda c: lp_weights(0, 1, self.CENTERS, z, float(c.bandwidth), kernel),
            LocalFitConfig(b, kernel))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("b", [0.06, 0.12, 0.3, 1.0])
    def test_matches_lp_weights(self, family, b):
        kernel = Kernel1D(family)
        z = np.concatenate([np.linspace(0.0, 1.0, 81), self.CENTERS])
        got = local_linear_weights(self.CENTERS, z, b, kernel)
        want = np.vstack([self.reference(zz, b, kernel) for zz in z])
        assert got.shape == (z.size, self.CENTERS.size)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.allclose(local_linear_weights(self.CENTERS, z[7], b, kernel),
                           want[7], rtol=0, atol=1e-12)

    def test_grid_covers_single_center_and_widened_rows(self):
        # at b=0.06 some rows see one center, and some none until widened
        kernel = Kernel1D()
        z = np.linspace(0.0, 1.0, 81)
        counts = np.count_nonzero(
            kernel_eval(kernel, (self.CENTERS[None, :] - z[:, None]) / 0.06) > 0, axis=1)
        assert np.any(counts == 1) and np.any(counts == 0) and np.any(counts >= 2)

    def test_single_center_row_is_indicator(self):
        w = local_linear_weights(self.CENTERS, [0.3, 0.31], 0.05)
        want = np.zeros(self.CENTERS.size)
        want[2] = 1.0
        assert np.array_equal(w[0], want) and np.array_equal(w[1], want)

    def test_widening_is_per_row(self):
        # z=0.82 needs two widenings; z=0.5 none, so its weights keep b
        w = local_linear_weights(self.CENTERS, [0.5, 0.82], 0.05)
        assert np.array_equal(w[0], local_linear_weights(self.CENTERS, 0.5, 0.05))
        assert np.allclose(w[1], self.reference(0.82, 0.05, Kernel1D()), atol=1e-12)
        assert w[1][4] != 0.0 and w[1][5] != 0.0

    def test_exhausted_row_raises(self):
        centers = np.array([0.0, 1.0])
        # the gap needs b > 0.5; 0.05 * 1.5**5 = 0.38 is not enough
        with pytest.raises(InsufficientCenters):
            local_linear_weights(centers, [0.0, 0.5], 0.05)
        with pytest.raises(InsufficientCenters):
            widen_until_fit(lambda c: lp_weights(0, 1, centers, 0.5, float(c.bandwidth)),
                            LocalFitConfig(0.05))
        assert local_linear_weights(centers, 0.5, 0.07).tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("b", [0.0, -0.3, float("nan")])
    def test_nonpositive_bandwidth_rejected(self, b):
        # as LocalFitConfig rejects it on the lp_weights path
        with pytest.raises(ValueError, match="positive"):
            local_linear_weights(self.CENTERS, 0.5, b)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_reproduces_constants_and_lines(self, family):
        rng = np.random.default_rng(41)
        centers = np.sort(rng.uniform(0, 1, 9))
        z = rng.uniform(0, 1, 200)
        # every row has at least two weighted centers, so no order drop
        w = local_linear_weights(centers, z, 0.9, Kernel1D(family))
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(w @ (2.0 - 3.0 * centers), 2.0 - 3.0 * z, rtol=0, atol=1e-12)

    def test_tiny_weight_stays_exact(self):
        # the right center's weight is about 1e-31: S0 S2 - S1² would cancel
        centers = (np.arange(8) + 0.5) / 8
        w = local_linear_weights(centers, 0.3375, 0.1, Kernel1D("quartic"))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w @ centers == pytest.approx(0.3375, abs=1e-12)


def reference_local_linear_weights(centers, z, b, kernel=Kernel1D()):
    """The closed-form weights as first written: per-row bandwidths from the
    start, widened together, the reference center taken by take_along_axis."""
    centers = np.asarray(centers, dtype=float)
    z = np.asarray(z, dtype=float)
    zz = np.atleast_1d(z)
    d = centers[None, :] - zz[:, None]
    bw = np.full((zz.size, 1), float(b))
    for _ in range(6):
        kw = kernel_eval(kernel, d / bw)
        empty = ~np.any(kw > 0, axis=1)
        if not empty.any():
            break
        bw[empty] *= 1.5
    else:
        raise InsufficientCenters("exhausted")
    u = d / bw
    a = kw / kw.sum(axis=1, keepdims=True)
    ref = np.take_along_axis(u, np.argmax(kw, axis=1)[:, None], axis=1)
    m1 = (a * (u - ref)).sum(axis=1, keepdims=True)
    c = (u - ref) - m1
    var = (a * c * c).sum(axis=1, keepdims=True)
    flat = var[:, 0] == 0.0
    w = a * (var - (ref + m1) * c) / np.where(flat[:, None], 1.0, var)
    w[flat] = a[flat]
    return w[0] if z.ndim == 0 else w


class TestLocalLinearWeightsBitEqual:
    CENTERS = TestLocalLinearWeights.CENTERS

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mixed_rows(self, family):
        # at b=0.05: z=0.3 sees one center, z=0.82 none until widened twice,
        # z=0.4 two
        kernel = Kernel1D(family)
        z = np.array([0.3, 0.82, 0.4, 0.0, 1.0, 0.15])
        got = local_linear_weights(self.CENTERS, z, 0.05, kernel)
        assert np.array_equal(got, reference_local_linear_weights(self.CENTERS, z, 0.05, kernel))

    @pytest.mark.parametrize("z", [0.3, 0.82, 0.4, 0.0])
    def test_scalar_rows(self, z):
        got = local_linear_weights(self.CENTERS, z, 0.05)
        assert got.shape == (self.CENTERS.size,)
        assert np.array_equal(got, reference_local_linear_weights(self.CENTERS, z, 0.05))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [1, 2, 8, 25])
    def test_scalar_row_is_array_row(self, family, p):
        # a scalar z takes its own row code; it must give the batch row's
        # bits at the domain ends, at and between the centers, where the
        # row widens, and raise where the batch raises
        kernel = Kernel1D(family)
        centers = (np.arange(p) + 0.5) / p
        z = np.concatenate([[0.0, 1.0, 0.37], centers, (centers[:-1] + centers[1:]) / 2])
        kinds = set()
        for b in np.array([0.05, 0.3, 0.7, 1.2, 3.0]) / p:
            for zz in z:
                try:
                    want = local_linear_weights(centers, [zz], b, kernel)[0]
                except InsufficientCenters:
                    with pytest.raises(InsufficientCenters):
                        local_linear_weights(centers, zz, b, kernel)
                    kinds.add("exhausted")
                    continue
                got = local_linear_weights(centers, zz, b, kernel)
                assert got.shape == (p,)
                assert np.array_equal(got, want), (b, zz)
                if not kernel_eval(kernel, (centers - zz) / b).any():
                    kinds.add("widened")
                kinds.add("indicator" if np.count_nonzero(got) == 1 else "mixed")
            try:
                batch = local_linear_weights(centers, z, b, kernel)
            except InsufficientCenters:
                continue
            rows = np.vstack([local_linear_weights(centers, zz, b, kernel) for zz in z])
            assert np.array_equal(rows, batch), b
        assert {"exhausted", "widened", "indicator"} <= kinds
        assert p == 1 or "mixed" in kinds

    def test_single_center_carries_all_weight(self):
        got = local_linear_weights(self.CENTERS, [0.3], 0.05)
        assert np.array_equal(got, reference_local_linear_weights(self.CENTERS, [0.3], 0.05))
        assert got[0, 2] == 1.0

    @pytest.mark.parametrize("b", [0.03, 0.06, 0.12, 0.3, 1.0])
    def test_dense_z_and_smoother_rows(self, b):
        rng = np.random.default_rng(43)
        z = np.concatenate([rng.uniform(0, 1, 200), self.CENTERS])
        assert np.array_equal(local_linear_weights(self.CENTERS, z, b),
                              reference_local_linear_weights(self.CENTERS, z, b))
        s, _ = smoothing_matrix(self.CENTERS, b)
        assert np.array_equal(s, reference_local_linear_weights(self.CENTERS, self.CENTERS, b))


class TestSmoothingMatrix:
    def test_interpolating_limit(self):
        centers = np.linspace(0.1, 0.9, 5)
        s, trace = smoothing_matrix(centers, 1e-9)
        assert np.allclose(s, np.eye(5), atol=1e-12)
        assert trace == pytest.approx(5.0)

    def test_rows_sum_to_one(self):
        centers = np.linspace(0.0625, 0.9375, 8)
        s, _ = smoothing_matrix(centers, 0.3)
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_trace_matches_elementwise_oracle(self):
        centers = np.linspace(1.0 / 18, 17.0 / 18, 9)
        s, trace = smoothing_matrix(centers, 0.25)
        assert trace == pytest.approx(float(np.sum(s * s)), abs=1e-12)
        rows = [oracle_lp_weights(0, 1, centers, c, 0.25, Kernel1D())
                for c in centers]
        assert np.allclose(s, np.vstack(rows), atol=1e-12)


class TestPropertySuites:
    """Randomized suites; counts match the acceptance contract."""

    def test_affine_exactness_1d_1000(self):
        rng = np.random.default_rng(11)
        for case in range(1000):
            n = rng.integers(5, 40)
            x = rng.uniform(0, 1, n)
            while np.unique(x).size < 2:
                x = rng.uniform(0, 1, n)
            a, b = rng.normal(size=2)
            y = a + b * x
            bw = rng.uniform(0.3, 3.0)
            fam = FAMILIES[case % 3]
            s = rng.uniform(x.min(), x.max(), 4)
            got = local_linear_1d_at(x, y, s, bw, kernel=Kernel1D(fam))
            assert np.allclose(got, a + b * s, atol=1e-9), f"case {case}"

    def test_affine_exactness_2d_1000(self):
        rng = np.random.default_rng(12)
        for case in range(1000):
            n = rng.integers(8, 40)
            x1 = rng.uniform(0, 1, n)
            x2 = rng.uniform(0, 1, n)
            a, b, c = rng.normal(size=3)
            y = a + b * x1 + c * x2
            bw = rng.uniform(0.7, 3.0)
            fam = Kernel1D(FAMILIES[case % 3])
            s1 = rng.uniform(0.2, 0.8, 2)
            s2 = rng.uniform(0.2, 0.8, 2)
            try:
                got = local_linear_2d_at(x1, x2, y, s1, s2, (bw, bw),
                                         kernel=fam)
            except InsufficientLocalData:
                continue   # tiny windows on degenerate draws are legal failures
            want = a + b * s1[:, None] + c * s2[None, :]
            assert np.allclose(got, want, atol=1e-9), f"case {case}"

    def test_lp_weights_moment_conditions_1000(self):
        import math
        rng = np.random.default_rng(13)
        done = 0
        while done < 1000:
            r = int(rng.integers(1, 4))
            q = int(rng.integers(0, r + 1))
            p = int(rng.integers(r + 2, 14))
            centers = np.sort(rng.uniform(0, 1, p))
            z = rng.uniform(0.1, 0.9)
            b = rng.uniform(0.2, 1.2)
            kw = kernel_eval(Kernel1D(), (centers - z) / b)
            if np.count_nonzero(kw > 0) < r + 1:
                continue
            w = lp_weights(q, r, centers, z, b)
            d = centers - z
            for j in range(r + 1):
                want = math.factorial(q) if j == q else 0.0
                assert w @ d**j == pytest.approx(want, abs=1e-9), (q, r, j)
            done += 1

    def test_polynomial_reproduction(self):
        # applying the weights to a degree-<=r polynomial recovers its
        # q-th derivative at z
        rng = np.random.default_rng(14)
        done = 0
        while done < 300:
            r = int(rng.integers(1, 4))
            q = int(rng.integers(0, r + 1))
            p = int(rng.integers(r + 3, 15))
            centers = np.sort(rng.uniform(0, 2, p))
            z = rng.uniform(0.3, 1.7)
            b = rng.uniform(0.4, 1.5)
            kw = kernel_eval(Kernel1D(), (centers - z) / b)
            if np.count_nonzero(kw > 0) < r + 1:
                continue
            coefs = rng.normal(size=r + 1)          # c0 + c1 x + ... + cr x^r
            poly = np.polynomial.Polynomial(coefs)
            w = lp_weights(q, r, centers, z, b)
            got = w @ poly(centers)
            want = poly.deriv(q)(z) if q else poly(z)
            assert got == pytest.approx(want, abs=1e-9 * max(1, abs(want)))
            done += 1
