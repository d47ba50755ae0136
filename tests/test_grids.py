import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcflr.errors import InvalidInterval
from vcflr.grids import GridSurface, bilinear, make_grid


def basis(k, s):
    """Orthonormal trig basis on [0, 10] used as a quadrature test target."""
    c = np.sqrt(1.0 / 5.0)
    if k == 1:
        return -c * np.cos(np.pi * s / 5.0)
    if k == 2:
        return c * np.sin(np.pi * s / 5.0)
    return -c * np.cos(2.0 * np.pi * s / 5.0)


class TestMakeGrid:
    def test_weights_sum_and_values(self):
        g = make_grid(0, 10, 51)
        assert g.weights.sum() == pytest.approx(10.0, abs=1e-12)
        assert g.weights[0] == pytest.approx(0.1)
        assert g.weights[-1] == pytest.approx(0.1)
        assert np.allclose(g.weights[1:-1], 0.2)

    def test_two_points(self):
        g = make_grid(0, 1, 2)
        assert np.allclose(g.weights, [0.5, 0.5])

    def test_three_points(self):
        g = make_grid(0, 10, 3)
        assert np.allclose(g.points, [0, 5, 10])
        assert np.allclose(g.weights, [2.5, 5.0, 2.5])

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            make_grid(1, 1, 5)
        with pytest.raises(InvalidInterval):
            make_grid(0, 1, 1)

    @given(lower=st.floats(-100, 100), length=st.floats(0.1, 100),
           n=st.integers(2, 400))
    @settings(max_examples=200, deadline=None)
    def test_weights_sum_to_length(self, lower, length, n):
        g = make_grid(lower, lower + length, n)
        assert abs(g.weights.sum() - length) < 1e-12 * max(1.0, length)


def integrate(g, values):
    """Trapezoid integral as the pipeline writes it: weights times values."""
    return float(g.weights @ values)


class TestIntegrate:
    def test_constant(self):
        g = make_grid(0, 10, 17)
        assert integrate(g, np.ones(17)) == pytest.approx(10.0)

    def test_linear_exact(self):
        g = make_grid(0, 10, 23)
        assert integrate(g, g.points) == pytest.approx(50.0, abs=1e-12)

    def test_unit_norm_basis(self):
        g = make_grid(0, 10, 201)
        assert integrate(g, basis(1, g.points) ** 2) == pytest.approx(1.0, abs=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        g = make_grid(0, 1, 31)
        f = rng.normal(size=31)
        h = rng.normal(size=31)
        a, b = 2.5, -1.25
        lhs = integrate(g, a * f + b * h)
        rhs = a * integrate(g, f) + b * integrate(g, h)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestInnerProduct:
    def test_orthogonal_basis(self):
        g = make_grid(0, 10, 201)
        assert integrate(g, basis(1, g.points) * basis(2, g.points)) == \
            pytest.approx(0.0, abs=1e-6)

    def test_nonnegative_square(self):
        rng = np.random.default_rng(1)
        g = make_grid(0, 1, 11)
        for _ in range(20):
            f = rng.normal(size=11)
            assert integrate(g, f * f) >= 0

    def test_constants(self):
        g = make_grid(0, 10, 41)
        assert integrate(g, np.ones(41)) == pytest.approx(10.0)


def double_integral(surf, left, right):
    """Trapezoid bilinear form as sigma_mk writes it: (w l)' K (w r)."""
    return float((surf.row_grid.weights * left) @ surf.values
                 @ (surf.col_grid.weights * right))


class TestDoubleIntegral:
    def test_separable_orthonormal(self):
        g = make_grid(0, 10, 201)
        psi = basis(1, g.points)
        phi = basis(2, g.points)
        surf = GridSurface(g, g, np.outer(psi, phi))
        assert double_integral(surf, psi, phi) == pytest.approx(1.0, abs=1e-5)

    def test_zero_kernel(self):
        g = make_grid(0, 1, 9)
        surf = GridSurface(g, g, np.zeros((9, 9)))
        assert double_integral(surf, np.ones(9), np.ones(9)) == 0.0

    def test_constant_kernel(self):
        g = make_grid(0, 10, 21)
        surf = GridSurface(g, g, np.ones((21, 21)))
        assert double_integral(surf, np.ones(21), np.ones(21)) == pytest.approx(100.0)

    def test_separable_factorizes(self):
        rng = np.random.default_rng(2)
        g1 = make_grid(0, 3, 17)
        g2 = make_grid(-1, 2, 23)
        for _ in range(25):
            u = rng.normal(size=17)
            v = rng.normal(size=23)
            left = rng.normal(size=17)
            right = rng.normal(size=23)
            surf = GridSurface(g1, g2, np.outer(u, v))
            got = double_integral(surf, left, right)
            want = integrate(g1, left * u) * integrate(g2, right * v)
            assert got == pytest.approx(want, abs=1e-10 * max(1, abs(want)))


class TestBilinear:
    def test_reproduces_nodes(self):
        rng = np.random.default_rng(3)
        gx = np.linspace(0, 1, 7)
        gy = np.linspace(0, 2, 9)
        z = rng.normal(size=(7, 9))
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        got = bilinear(gx, gy, z, xx.ravel(), yy.ravel()).reshape(7, 9)
        assert np.allclose(got, z)

    def test_bilinear_exact_on_affine(self):
        gx = np.linspace(0, 1, 11)
        gy = np.linspace(0, 1, 13)
        z = 2.0 + 3.0 * gx[:, None] - 1.5 * gy[None, :]
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 40)
        y = rng.uniform(0, 1, 40)
        assert np.allclose(bilinear(gx, gy, z, x, y), 2 + 3 * x - 1.5 * y)


def four_corner_bilinear(gx, gy, z, x, y):
    """The four-corner bilinear formula with clipped indices, written out."""
    x = np.clip(np.asarray(x, dtype=float), gx[0], gx[-1])
    y = np.clip(np.asarray(y, dtype=float), gy[0], gy[-1])
    ix = np.clip(np.searchsorted(gx, x, side="right") - 1, 0, gx.size - 2)
    iy = np.clip(np.searchsorted(gy, y, side="right") - 1, 0, gy.size - 2)
    fx = (x - gx[ix]) / (gx[ix + 1] - gx[ix])
    fy = (y - gy[iy]) / (gy[iy + 1] - gy[iy])
    return (
        z[ix, iy] * (1 - fx) * (1 - fy)
        + z[ix + 1, iy] * fx * (1 - fy)
        + z[ix, iy + 1] * (1 - fx) * fy
        + z[ix + 1, iy + 1] * fx * fy
    )


class TestBilinearBitEqual:
    GX = np.linspace(0, 10, 51)
    GY = np.linspace(-1, 2, 13)

    def surface(self, seed):
        return np.random.default_rng(seed).normal(size=(self.GX.size, self.GY.size))

    def test_points_outside_the_grid_box(self):
        rng = np.random.default_rng(5)
        z = self.surface(6)
        x = rng.uniform(-5, 15, 300)
        y = rng.uniform(-3, 4, 300)
        assert np.any(x < 0) and np.any(x > 10) and np.any(y < -1) and np.any(y > 2)
        assert np.array_equal(bilinear(self.GX, self.GY, z, x, y),
                              four_corner_bilinear(self.GX, self.GY, z, x, y))

    def test_points_on_grid_lines(self):
        z = self.surface(7)
        xx, yy = np.meshgrid(self.GX, self.GY, indexing="ij")
        x, y = xx.ravel(), yy.ravel()
        got = bilinear(self.GX, self.GY, z, x, y)
        assert np.array_equal(got, four_corner_bilinear(self.GX, self.GY, z, x, y))
        # the last grid line on either axis is interpolated exactly
        assert np.array_equal(got.reshape(z.shape)[-1], z[-1])
        assert np.array_equal(got.reshape(z.shape)[:, -1], z[:, -1])

    def test_stacked_pairwise_broadcast(self):
        # the (g, n, 1) x (g, 1, n) shape the observation covariance uses
        rng = np.random.default_rng(8)
        z = rng.normal(size=(51, 51))
        times = np.sort(rng.uniform(0, 10, (4, 6)), axis=1)
        times[0, -1] = 10.0
        times[1, 0] = 0.0
        x, y = times[:, :, None], times[:, None, :]
        got = bilinear(self.GX, self.GX, z, x, y)
        assert got.shape == (4, 6, 6)
        assert np.array_equal(got, four_corner_bilinear(self.GX, self.GX, z, x, y))

    def test_two_point_axes(self):
        gx = np.array([0.0, 1.0])
        z = np.array([[1.0, 2.0], [3.0, 5.0]])
        x = np.array([-1.0, 0.0, 0.25, 1.0, 2.0])
        y = np.array([0.5, 1.0, 0.0, 0.75, -1.0])
        assert np.array_equal(bilinear(gx, gx, z, x, y),
                              four_corner_bilinear(gx, gx, z, x, y))
