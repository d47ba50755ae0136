import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vcflr import fpca, smoothing
from vcflr.data import Subject
from vcflr.errors import (
    InsufficientLocalData,
    NotSymmetric,
    SingularCovariance,
    TruncationTooLarge,
)
from vcflr.fpca import (
    EigenSystem,
    _blup_operator,
    _count_groups,
    _unique_rows,
    aggregate_1d,
    BinBandwidths,
    blup_scores,
    covariance_diagonal,
    covariance_pairs,
    cross_pairs,
    eigendecompose,
    estimate_mean,
    estimate_sigma2,
    fit_bin,
    group_pairs,
    observation_covariance,
    sigma_mk,
    smooth_covariance,
    smooth_cross_covariance,
)
from vcflr.grids import GridFunction, GridSurface, make_grid
from vcflr.kernels import Kernel1D, kernel_eval
from vcflr.smoothing import LocalFitConfig

from reference import aggregate_2d, raw_covariances, raw_cross_products


def basis(s):
    """Three orthonormal functions on [0, 10] (columns)."""
    s = np.asarray(s, dtype=float)
    c = np.sqrt(0.2)
    return np.column_stack([
        -c * np.cos(np.pi * s / 5.0),
        c * np.sin(np.pi * s / 5.0),
        -c * np.cos(2.0 * np.pi * s / 5.0),
    ])


RHO = np.array([4.0, 2.0, 1.0])


class TestAggregation:
    def test_1d_groups_duplicates(self):
        x = np.array([1.0, 2.0, 1.0, 2.0, 2.0])
        y = np.array([1.0, 2.0, 3.0, 4.0, 6.0])
        xu, ybar, w = aggregate_1d(x, y)
        assert np.array_equal(xu, [1.0, 2.0])
        assert np.allclose(ybar, [2.0, 4.0])
        assert np.array_equal(w, [2.0, 3.0])

    def test_2d_groups_duplicates(self):
        x1 = np.array([0.0, 0.0, 1.0, 0.0])
        x2 = np.array([2.0, 2.0, 3.0, 1.0])
        y = np.array([1.0, 3.0, 5.0, 7.0])
        a, b, ybar, w = aggregate_2d(x1, x2, y)
        assert np.array_equal(a, [0.0, 0.0, 1.0])
        assert np.array_equal(b, [1.0, 2.0, 3.0])
        assert np.allclose(ybar, [7.0, 2.0, 5.0])
        assert np.array_equal(w, [1.0, 2.0, 1.0])


def oracle_aggregate_2d(x1, x2, y):
    """Grouping by a float lexsort of the raw rows themselves (empty in,
    empty out)."""
    x1, x2, y = (np.asarray(a, dtype=float) for a in (x1, x2, y))
    if x1.size == 0:
        return np.empty(0), np.empty(0), np.empty(0), np.empty(0)
    order = np.lexsort((x2, x1))
    x1s, x2s, ys = x1[order], x2[order], y[order]
    new = np.empty(x1s.size, dtype=bool)
    new[0] = True
    new[1:] = (np.diff(x1s) != 0) | (np.diff(x2s) != 0)
    group = np.cumsum(new) - 1
    w = np.bincount(group).astype(float)
    ybar = np.bincount(group, weights=ys) / w
    return x1s[new], x2s[new], ybar, w


def grouped(pairs):
    """Grouped rows of raw (x1, x2, value) rows, as the 2D smoothers take them."""
    return aggregate_2d(pairs[:, 0], pairs[:, 1], pairs[:, 2])


def halved(s1, s2, values):
    """Raw (x1, x2, value) rows of symmetric pairs, each once with
    x1 <= x2, as a covariance's j < l pairs come."""
    return np.column_stack([np.minimum(s1, s2), np.maximum(s1, s2), values])


def half_rows(subjects, mean, stream):
    """The grouped rows of a stream's j < l pairs."""
    return group_pairs(*covariance_pairs(subjects, mean, stream)[0])


def assert_rows_equal(got, want):
    assert len(got) == 4
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def lattice_subjects(counts, seed, step=0.5, scalar=False):
    """Subjects whose times sit on a coarse lattice, so times repeat within
    and across subjects; ``counts`` holds (n_x, n_y) per subject."""
    rng = np.random.default_rng(seed)
    out = []
    for i, (nx, ny) in enumerate(counts):
        xt = rng.integers(0, 21, nx) * step
        yt = None if scalar else rng.integers(0, 21, ny) * step
        yv = rng.normal(size=1 if scalar else ny)
        out.append(Subject(f"s{i}", 0.5, xt, rng.normal(size=nx), yt, yv))
    return out


def lattice_means():
    grid = make_grid(0, 10, 21)
    return GridFunction(grid, np.sin(grid.points)), GridFunction(grid, 0.1 * grid.points)


class TestGroupPairs:
    """Grouping by observation-time codes equals the lexsort of the raw rows,
    element for element."""

    COUNTS = [(3, 2), (0, 4), (1, 1), (5, 0), (2, 3), (0, 0), (4, 4), (1, 3),
              (3, 1), (6, 2), (2, 2), (8, 5)]

    @pytest.mark.parametrize("stream", ["x", "y"])
    def test_covariance_pairs_with_duplicate_times(self, stream):
        subjects = lattice_subjects(self.COUNTS, 90)
        mean = lattice_means()[0 if stream == "x" else 1]
        pairs, _ = covariance_pairs(subjects, mean, stream)
        times = pairs[0]
        assert np.unique(times).size < times.size   # ties within and across subjects
        off, _ = oracle_raw_covariances(subjects, mean, stream, half=True)
        got = group_pairs(*pairs)
        assert np.any(got[3] > 1)
        assert_rows_equal(got, oracle_aggregate_2d(off[:, 0], off[:, 1], off[:, 2]))

    def test_cross_pairs_unequal_counts(self):
        subjects = lattice_subjects(self.COUNTS, 91)
        mean_x, mean_y = lattice_means()
        pairs = cross_pairs(subjects, mean_x, mean_y)
        assert pairs[0].size != pairs[1].size
        raw = raw_cross_products(subjects, mean_x, mean_y)
        assert_rows_equal(group_pairs(*pairs),
                          oracle_aggregate_2d(raw[:, 0], raw[:, 1], raw[:, 2]))

    def test_signed_zero_is_one_location(self):
        x1 = np.array([0.0, -0.0, 1.0, 0.0, -0.0])
        x2 = np.array([-0.0, 0.0, -0.0, 1.0, 1.0])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        got = aggregate_2d(x1, x2, y)
        assert_rows_equal(got, oracle_aggregate_2d(x1, x2, y))
        assert np.array_equal(got[3], [2.0, 2.0, 1.0])

    def test_zero_and_one_observation_subjects(self):
        subjects = lattice_subjects([(0, 0), (1, 1), (0, 2), (1, 0)], 92)
        mean_x, mean_y = lattice_means()
        pairs, diag = covariance_pairs(subjects, mean_x, "x")
        assert pairs[2].size == 0 and diag.shape == (2, 2)
        assert_rows_equal(group_pairs(*pairs), oracle_aggregate_2d([], [], []))
        raw = raw_cross_products(subjects, mean_x, mean_y)
        assert raw.shape == (1, 3)
        assert_rows_equal(group_pairs(*cross_pairs(subjects, mean_x, mean_y)),
                          oracle_aggregate_2d(raw[:, 0], raw[:, 1], raw[:, 2]))

    def test_no_subjects(self):
        mean_x, mean_y = lattice_means()
        pairs, _ = covariance_pairs([], mean_x, "x")
        assert_rows_equal(group_pairs(*pairs), oracle_aggregate_2d([], [], []))
        assert_rows_equal(group_pairs(*cross_pairs([], mean_x, mean_y)),
                          oracle_aggregate_2d([], [], []))
        assert_rows_equal(aggregate_2d([], [], []), oracle_aggregate_2d([], [], []))

    @given(counts=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12),
           step=st.sampled_from([0.5, 2.5, 5.0]), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_random_subject_sets_with_ties(self, counts, step, seed):
        subjects = lattice_subjects(counts, seed, step=step)
        mean_x, mean_y = lattice_means()
        for stream, mean in (("x", mean_x), ("y", mean_y)):
            off, _ = oracle_raw_covariances(subjects, mean, stream, half=True)
            assert_rows_equal(group_pairs(*covariance_pairs(subjects, mean, stream)[0]),
                              oracle_aggregate_2d(off[:, 0], off[:, 1], off[:, 2]))
        raw = raw_cross_products(subjects, mean_x, mean_y)
        assert_rows_equal(group_pairs(*cross_pairs(subjects, mean_x, mean_y)),
                          oracle_aggregate_2d(raw[:, 0], raw[:, 1], raw[:, 2]))


def count_calls(mp, name, size):
    """Record ``size(args, result)`` for every call of ``fpca.<name>``."""
    calls = []
    real = getattr(fpca, name)

    def counting(*args):
        out = real(*args)
        calls.append(size(args, out))
        return out

    mp.setattr(fpca, name, counting)
    return calls


def count_rows(mp):
    """Rows returned per ``pair_rows`` call."""
    return count_calls(mp, "pair_rows", lambda args, out: out[0].size)


def count_sorted_pairs(mp):
    """Pairs passed per ``group_pairs`` call."""
    return count_calls(mp, "group_pairs", lambda args, out: args[2].size)


class TestFitBinGroupsOnce:
    """fit_bin groups each pair set once, however often a smoother widens."""

    @staticmethod
    def count_attempts(monkeypatch):
        """Attempts per widen_until_fit call of fpca."""
        attempts = []
        real = fpca.widen_until_fit

        def widen(fit, cfg):
            attempts.append(0)

            def attempt(c):
                attempts[-1] += 1
                return fit(c)
            return real(attempt, cfg)

        monkeypatch.setattr(fpca, "widen_until_fit", widen)
        return attempts

    @pytest.mark.parametrize("surface_bw", [3.0, 0.3])
    def test_functional_bin_three_groupings(self, monkeypatch, surface_bw):
        from vcflr.simulation import SPARSE, generate
        ds, _ = generate(SPARSE, 60, seed=93)
        grid = make_grid(0, 10, 21)
        pair = (surface_bw, surface_bw)
        bw = BinBandwidths(mean_x=2.0, mean_y=2.0, cov_x=pair, cov_y=pair,
                           diag_x=surface_bw, diag_y=surface_bw, cross=pair)
        attempts = self.count_attempts(monkeypatch)
        calls = count_rows(monkeypatch)
        fit_bin(ds.subjects, 0.5, grid, grid, bw, Kernel1D(), 3, 3)
        assert len(calls) == 3
        # two means, two surfaces, two diagonals and the cross surface
        assert len(attempts) == 7
        if surface_bw < 1.0:
            assert max(attempts) > 1   # some smoother widened

    def test_scalar_bin_one_grouping(self, monkeypatch):
        from vcflr.simulation import REGULAR, generate
        ds, _ = generate(REGULAR, 40, seed=94)
        subjects = [Subject(s.id, s.z, s.x_times, s.x_values, None,
                            np.array([float(s.y_values.mean())])) for s in ds.subjects]
        grid = make_grid(0, 10, 21)
        bw = BinBandwidths(mean_x=2.0, mean_y=None, cov_x=(0.3, 0.3), cov_y=None,
                           diag_x=0.3, diag_y=None, cross=2.0)
        attempts = self.count_attempts(monkeypatch)
        calls = count_rows(monkeypatch)
        fit_bin(subjects, 0.5, grid, None, bw, Kernel1D(), 3, 1)
        assert len(calls) == 1
        assert max(attempts) > 1


LATTICE = np.arange(21) * 0.5


@st.composite
def vector_pool_subjects(draw):
    """Subjects drawn from a small pool of time vectors on one lattice, so
    that vectors repeat and reach each other's locations: the full lattice,
    thinned and tied subsets of it, and vectors of 0 and 1 observations.
    Each subject takes one pool vector per stream (one x vector and one
    scalar response when ``scalar``)."""
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["full", "thinned", "tied", "empty", "single"]))
        if kind == "full":
            times = LATTICE
        elif kind == "empty":
            times = LATTICE[:0]
        elif kind == "single":
            times = LATTICE[[draw(st.integers(0, 20))]]
        else:
            idx = draw(st.lists(st.integers(0, 20), min_size=2, max_size=8, unique=True))
            times = LATTICE[sorted(idx)]
            if kind == "tied":
                times = np.sort(np.append(times, times[draw(st.integers(0, times.size - 1))]))
        pool.append(times)
    scalar = draw(st.booleans())
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(0, len(pool) - 1)), max_size=14))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    subjects = []
    for i, (px, py) in enumerate(picks):
        xt, yt = pool[px], None if scalar else pool[py]
        yv = rng.normal(size=1 if scalar else yt.size)
        subjects.append(Subject(f"s{i}", 0.5, xt, rng.normal(size=xt.size), yt, yv))
    return subjects, scalar


@st.composite
def shared_vector_subjects(draw):
    """0 to 40 subjects that all share one x and one y time vector, each the
    full lattice, a thinned or tied subset of it, or 1 or 2 of its times,
    with values at a scale of 1e-8, 1 or 1e8."""
    def vector():
        kind = draw(st.sampled_from(["full", "thinned", "tied", "one", "two"]))
        if kind == "full":
            return LATTICE
        size = {"one": (1, 1), "two": (2, 2)}.get(kind, (2, 8))
        idx = draw(st.lists(st.integers(0, 20), min_size=size[0], max_size=size[1],
                            unique=True))
        times = LATTICE[sorted(idx)]
        if kind == "tied":
            times = np.sort(np.append(times, times[draw(st.integers(0, times.size - 1))]))
        return times

    xt, yt = vector(), vector()
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return [Subject(f"s{i}", 0.5, xt, scale * rng.normal(size=xt.size),
                    yt, scale * rng.normal(size=yt.size))
            for i in range(draw(st.integers(0, 40)))], False


def pair_rows_of(subjects, scalar):
    """``pair_rows`` of both covariance streams (the x stream alone for a
    scalar response) and of the functional cross surface, each with the
    oracle grouping of its raw rows."""
    mean_x, mean_y = lattice_means()
    out = []
    for stream, mean in (("x", mean_x), ("y", mean_y))[:1 if scalar else 2]:
        stream_ = fpca._centered(subjects, stream, mean)
        off, _ = oracle_raw_covariances(subjects, mean, stream, half=True)
        out.append((fpca.pair_rows(stream_, stream_, True),
                    oracle_aggregate_2d(off[:, 0], off[:, 1], off[:, 2])))
    if not scalar:
        raw = oracle_raw_cross_products(subjects, mean_x, mean_y)
        out.append((fpca.pair_rows(fpca._centered(subjects, "x", mean_x),
                                   fpca._centered(subjects, "y", mean_y), False),
                    oracle_aggregate_2d(raw[:, 0], raw[:, 1], raw[:, 2])))
    return out


def shares_one_vector(subjects):
    """Whether ``pair_rows`` may sum a bin's products without sorting them:
    two or more subjects, one strictly increasing vector per stream."""
    def one(times):
        return len(times) > 1 and all(np.array_equal(t, times[0]) for t in times) \
            and np.all(np.diff(times[0]) > 0)
    return one([s.x_times for s in subjects]), one([s.y_times for s in subjects])


class TestByVectorEntries:
    """Summing the products of a bin whose subjects all share one time
    vector gives the rows of grouping every pair, bit for bit; any other bin
    groups every pair."""

    @given(drawn=vector_pool_subjects())
    @settings(max_examples=150, deadline=None)
    def test_pooled_vectors_match_pairs(self, drawn):
        for got, want in pair_rows_of(*drawn):
            assert_rows_equal(got, want)

    @given(drawn=shared_vector_subjects())
    @settings(max_examples=150, deadline=None)
    def test_one_shared_vector_matches_pairs(self, drawn):
        subjects, _ = drawn
        with pytest.MonkeyPatch.context() as mp:
            sorted_pairs = count_sorted_pairs(mp)
            rows = pair_rows_of(subjects, False)
        for got, want in rows:
            assert_rows_equal(got, want)
        # a stream pair sorts unless it shares one vector with two pairs
        x, y = shares_one_vector(subjects)
        n = [s.n_x for s in subjects[:1]] + [s.n_y for s in subjects[:1]]
        n_x, n_y = n if n else (0, 0)
        summed = [x and n_x * (n_x - 1) // 2 > 1, y and n_y * (n_y - 1) // 2 > 1,
                  x and y and n_x * n_y > 1]
        assert len(sorted_pairs) == summed.count(False)

    @pytest.mark.parametrize("design", ["regular", "mixed", "thinned", "shifted"])
    def test_study_designs_match_pairs(self, design):
        from vcflr.simulation import REGULAR, SPARSE, generate
        regular = generate(REGULAR, 60, seed=97)[0].subjects
        sparse = generate(SPARSE, 60, seed=98)[0].subjects
        subjects = {
            "regular": regular,
            "mixed": regular[:20] + sparse[:30] + regular[20:],
            # every third subject observes half the times
            "thinned": [Subject(s.id, s.z, s.x_times[::2], s.x_values[::2],
                                s.y_times[::2], s.y_values[::2]) if i % 3 == 0 else s
                        for i, s in enumerate(regular)],
            # two disjoint shared vectors
            "shifted": [Subject(s.id, s.z, s.x_times + 0.1 * (i % 2), s.x_values,
                                s.y_times + 0.1 * (i % 2), s.y_values)
                        for i, s in enumerate(regular)],
        }[design]
        with pytest.MonkeyPatch.context() as mp:
            sorted_pairs = count_sorted_pairs(mp)
            rows = pair_rows_of(subjects, False)
        for got, want in rows:
            assert_rows_equal(got, want)
        n_x = np.array([s.n_x for s in subjects])
        n_y = np.array([s.n_y for s in subjects])
        pairs = [np.sum(n_x * (n_x - 1) // 2), np.sum(n_y * (n_y - 1) // 2), np.sum(n_x * n_y)]
        assert sorted_pairs == ([] if design == "regular" else pairs)

    @staticmethod
    def fit_one_bin(design, n, seed):
        from vcflr.simulation import generate
        ds, _ = generate(design, n, seed=seed)
        grid = make_grid(0, 10, 21)
        bw = BinBandwidths(mean_x=2.0, mean_y=2.0, cov_x=(2.0, 2.0), cov_y=(2.0, 2.0),
                           diag_x=2.0, diag_y=2.0, cross=(2.0, 2.0))
        fit_bin(ds.subjects, 0.5, grid, grid, bw, Kernel1D(), 3, 3)
        return ds.subjects

    def test_regular_bin_groups_one_entry_per_location(self, monkeypatch):
        from vcflr.simulation import REGULAR
        rows = count_rows(monkeypatch)
        sorted_pairs = count_sorted_pairs(monkeypatch)
        self.fit_one_bin(REGULAR, 100, 95)
        assert rows == [465, 465, 961]
        assert sorted_pairs == []

    def test_sparse_bin_groups_every_pair(self, monkeypatch):
        from vcflr.simulation import SPARSE
        sorted_pairs = count_sorted_pairs(monkeypatch)
        subjects = self.fit_one_bin(SPARSE, 100, 96)
        n_x = np.array([s.n_x for s in subjects])
        n_y = np.array([s.n_y for s in subjects])
        assert sorted_pairs == [np.sum(n_x * (n_x - 1) // 2), np.sum(n_y * (n_y - 1) // 2),
                                np.sum(n_x * n_y)]


def count_moment_paths(mp):
    """Points per 2D smoother call, by the helper that formed its moments."""
    paths = {"lattice": [], "tiles": []}
    for name, path, points in (("_lattice_moments", "lattice", lambda a: a[0][0][1].size),
                               ("_tiled_moments", "tiles", lambda a: a[0].size)):
        def counting(*args, real=getattr(smoothing, name), path=path, points=points):
            paths[path].append(points(args))
            return real(*args)
        mp.setattr(smoothing, name, counting)
    return paths


class TestFitBinMomentPaths:
    """A regular bin's surfaces lie on the 31 x 31 lattice of its times and
    take the lattice moments; a sparse bin's pairs are scattered and take
    the support tiles."""

    def test_regular_bin_takes_lattice(self, monkeypatch):
        from vcflr.simulation import REGULAR
        paths = count_moment_paths(monkeypatch)
        TestByVectorEntries.fit_one_bin(REGULAR, 100, 95)
        assert paths == {"lattice": [465, 465, 961], "tiles": []}

    def test_sparse_bin_takes_tiles(self, monkeypatch):
        from vcflr.simulation import SPARSE
        paths = count_moment_paths(monkeypatch)
        TestByVectorEntries.fit_one_bin(SPARSE, 100, 96)
        assert paths["lattice"] == [] and len(paths["tiles"]) == 3


class TestFitBinCentersOnce:
    """fit_bin concatenates each stream once and shares the centered stream
    between its covariance and the cross surface, which are the same bits
    as building it afresh."""

    @pytest.mark.parametrize("scalar", [False, True])
    def test_one_stream_each(self, monkeypatch, scalar):
        from vcflr.simulation import REGULAR, SPARSE, generate
        ds, _ = generate(REGULAR if scalar else SPARSE, 40, seed=99)
        subjects = ds.subjects
        if scalar:
            subjects = [Subject(s.id, s.z, s.x_times, s.x_values, None,
                                np.array([float(s.y_values.mean())])) for s in subjects]
        grid = make_grid(0, 10, 21)
        cross_bw = 2.0 if scalar else (2.0, 2.0)
        bw = BinBandwidths(mean_x=2.0, mean_y=None if scalar else 2.0, cov_x=(2.0, 2.0),
                           cov_y=None if scalar else (2.0, 2.0), diag_x=2.0,
                           diag_y=None if scalar else 2.0, cross=cross_bw)
        streams = count_calls(monkeypatch, "_observations", lambda args, out: args[1])
        est = fit_bin(subjects, 0.5, grid, None if scalar else grid, bw, Kernel1D(), 3, 3)
        assert streams == ["x", "y"]
        fresh = smooth_cross_covariance(centered(subjects, est.mean_x, est.mean_y),
                                        LocalFitConfig(cross_bw, Kernel1D()),
                                        (grid, None if scalar else grid))
        assert np.array_equal(est.cross.values, fresh.values)


class TestEstimateMean:
    def test_affine_truth_exact(self):
        rng = np.random.default_rng(20)
        times = rng.uniform(0, 10, 300)
        values = 1.5 + 0.5 * times
        grid = make_grid(0, 10, 31)
        mean = estimate_mean(times, values, LocalFitConfig(1.0), grid)
        assert np.allclose(mean.values, 1.5 + 0.5 * grid.points, atol=1e-9)

    def test_empty_errors(self):
        with pytest.raises(InsufficientLocalData):
            estimate_mean(np.array([1.0]), np.array([2.0]),
                          LocalFitConfig(1.0), make_grid(0, 10, 11))

    def test_recovers_smooth_mean(self):
        # one bin of 50 subjects from the regular three-component design
        from vcflr.simulation import REGULAR, generate
        ds, _ = generate(REGULAR, 50, seed=21)
        times = np.concatenate([s.x_times for s in ds.subjects])
        values = np.concatenate([s.x_values for s in ds.subjects])
        grid = make_grid(0, 10, 51)
        mean = estimate_mean(times, values, LocalFitConfig(1.0), grid)
        truth = grid.points + np.sin(grid.points)
        rms = np.sqrt(np.mean((mean.values - truth) ** 2))
        assert rms < 0.15


class TestRawCovariances:
    def test_two_point_products(self):
        grid = make_grid(0, 10, 11)
        zero_mean = GridFunction(grid, np.zeros(11))
        sub = Subject("a", 0.5, np.array([2.0, 7.0]), np.array([3.0, 5.0]),
                      np.array([1.0]), np.array([0.0]))
        off, diag = raw_covariances([sub], zero_mean, "x")
        assert off.shape == (2, 3)
        assert sorted(off[:, 2].tolist()) == [15.0, 15.0]
        assert {(r[0], r[1]) for r in off} == {(2.0, 7.0), (7.0, 2.0)}
        assert diag.shape == (2, 2)
        assert np.allclose(sorted(diag[:, 1]), [9.0, 25.0])

    def test_single_observation_no_pairs(self):
        grid = make_grid(0, 10, 11)
        zero_mean = GridFunction(grid, np.zeros(11))
        sub = Subject("a", 0.5, np.array([2.0]), np.array([3.0]),
                      np.array([1.0]), np.array([0.0]))
        off, diag = raw_covariances([sub], zero_mean, "x")
        assert off.shape[0] == 0
        assert diag.shape[0] == 1


def oracle_raw_covariances(subjects, mean, stream, half=False):
    """The per-subject definition: centered products, j != l off the
    diagonal (j < l with ``half``), row-major."""
    off, diag = [np.empty((0, 3))], [np.empty((0, 2))]
    for sub in subjects:
        times = sub.x_times if stream == "x" else sub.y_times
        values = sub.x_values if stream == "x" else sub.y_values
        resid = values - mean.at(times)
        prod = np.outer(resid, resid)
        diag.append(np.column_stack([times, resid * resid]))
        ii, jj = np.triu_indices(times.size, 1) if half \
            else np.where(~np.eye(times.size, dtype=bool))
        off.append(np.column_stack([times[ii], times[jj], prod[ii, jj]]))
    return np.vstack(off), np.vstack(diag)


def oracle_raw_cross_products(subjects, mean_x, mean_y):
    rows = [np.empty((0, 3 if isinstance(mean_y, GridFunction) else 2))]
    for sub in subjects:
        if sub.n_x == 0 or sub.n_y == 0:
            continue
        rx = sub.x_values - mean_x.at(sub.x_times)
        if isinstance(mean_y, GridFunction):
            ry = sub.y_values - mean_y.at(sub.y_times)
            ss, tt = np.meshgrid(sub.x_times, sub.y_times, indexing="ij")
            rows.append(np.column_stack([ss.ravel(), tt.ravel(), np.outer(rx, ry).ravel()]))
        else:
            rows.append(np.column_stack([sub.x_times, rx * (sub.y_scalar - mean_y)]))
    return np.vstack(rows)


class TestRawPairsAllSubjects:
    """Pairs built for all subjects at once equal the per-subject definition,
    row for row, on mixed observation counts (0 and 1 included)."""

    @staticmethod
    def subjects(scalar=False):
        rng = np.random.default_rng(71)
        out = []
        for i, (nx, ny) in enumerate([(3, 2), (0, 4), (1, 1), (5, 0), (2, 3), (0, 0),
                                      (4, 4), (1, 3), (3, 1), (6, 2), (2, 2)]):
            xt = np.sort(rng.uniform(0, 10, nx))
            yt = None if scalar else np.sort(rng.uniform(0, 10, ny))
            yv = rng.normal(size=1 if scalar else ny)
            out.append(Subject(f"s{i}", 0.5, xt, rng.normal(size=nx), yt, yv))
        return out

    @staticmethod
    def means():
        grid = make_grid(0, 10, 21)
        return (GridFunction(grid, np.sin(grid.points)),
                GridFunction(grid, 0.1 * grid.points))

    @pytest.mark.parametrize("stream", ["x", "y"])
    def test_covariances(self, stream):
        subjects = self.subjects()
        mean = self.means()[0 if stream == "x" else 1]
        off, diag = raw_covariances(subjects, mean, stream)
        want_off, want_diag = oracle_raw_covariances(subjects, mean, stream)
        assert off.shape[0] > 0 and np.array_equal(off, want_off)
        assert np.array_equal(diag, want_diag)
        # one subject at a time, as the surface cross-validation calls it
        for sub in subjects:
            got = raw_covariances([sub], mean, stream)
            want = oracle_raw_covariances([sub], mean, stream)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_cross_products(self):
        subjects = self.subjects()
        mean_x, mean_y = self.means()
        got = raw_cross_products(subjects, mean_x, mean_y)
        assert got.shape[0] > 0
        assert np.array_equal(got, oracle_raw_cross_products(subjects, mean_x, mean_y))
        for sub in subjects:
            assert np.array_equal(raw_cross_products([sub], mean_x, mean_y),
                                  oracle_raw_cross_products([sub], mean_x, mean_y))

    def test_scalar_cross_products(self):
        subjects = self.subjects(scalar=True)
        mean_x = self.means()[0]
        got = raw_cross_products(subjects, mean_x, 0.25)
        assert got.shape[1] == 2 and got.shape[0] > 0
        assert np.array_equal(got, oracle_raw_cross_products(subjects, mean_x, 0.25))

    def test_no_subjects(self):
        mean = self.means()[0]
        off, diag = raw_covariances([], mean, "x")
        assert off.shape == (0, 3) and diag.shape == (0, 2)
        assert raw_cross_products([], mean, mean).shape == (0, 3)


class TestSmoothCovariance:
    def test_affine_pairs_exact_and_symmetric(self):
        rng = np.random.default_rng(22)
        s1 = rng.uniform(0, 10, 200)
        s2 = rng.uniform(0, 10, 200)
        vals = 1.0 + 0.2 * s1 + 0.2 * s2
        grid = make_grid(0, 10, 21)
        surf = smooth_covariance(grouped(halved(s1, s2, vals)), LocalFitConfig((3.0, 3.0)), grid)
        want = 1.0 + 0.2 * grid.points[:, None] + 0.2 * grid.points[None, :]
        assert np.allclose(surf.values, want, atol=1e-9)
        assert np.max(np.abs(surf.values - surf.values.T)) < 1e-12

    def test_recovers_three_component_surface(self):
        from vcflr.simulation import SPARSE, generate
        from dataclasses import replace
        noiseless = replace(SPARSE, sigma_x=0.0, sigma_y=0.0)
        ds, _ = generate(noiseless, 100, seed=24)
        grid = make_grid(0, 10, 51)
        times = np.concatenate([s.x_times for s in ds.subjects])
        values = np.concatenate([s.x_values for s in ds.subjects])
        mean = estimate_mean(times, values, LocalFitConfig(1.0), grid)
        surf = smooth_covariance(half_rows(ds.subjects, mean, "x"), LocalFitConfig((1.5, 1.5)),
                                 grid)
        psi = basis(grid.points)
        truth = (psi * RHO) @ psi.T
        rms = np.sqrt(np.mean((surf.values - truth) ** 2))
        assert rms < 0.2


class TestEstimateSigma2:
    def test_constant_offset_recovered_exactly(self):
        # raw diagonal sits exactly sigma2 above an affine covariance
        rng = np.random.default_rng(24)
        s1 = rng.uniform(0, 10, 400)
        s2 = rng.uniform(0, 10, 400)
        cov_vals = 0.5 + 0.1 * s1 + 0.1 * s2
        sd = rng.uniform(0, 10, 150)
        diag = np.column_stack([sd, 0.5 + 0.2 * sd + 0.7])
        grid = make_grid(0, 10, 41)
        got = estimate_sigma2(diag, grouped(halved(s1, s2, cov_vals)), LocalFitConfig(2.0), grid)
        assert got == pytest.approx(0.7, abs=1e-9)

    def test_clamped_at_zero(self):
        rng = np.random.default_rng(25)
        s1 = rng.uniform(0, 10, 400)
        s2 = rng.uniform(0, 10, 400)
        pairs = halved(s1, s2, np.full(400, 2.0))
        sd = rng.uniform(0, 10, 100)
        diag = np.column_stack([sd, np.full(100, 1.0)])   # below the surface
        grid = make_grid(0, 10, 41)
        assert estimate_sigma2(diag, grouped(pairs), LocalFitConfig(2.0), grid) == 0.0

    def test_recovers_unit_noise_sparse_pooled(self):
        from vcflr.simulation import SPARSE, generate
        grid = make_grid(0, 10, 51)
        estimates = []
        for seed in range(10):
            ds, _ = generate(SPARSE, 300, seed=300 + seed)
            times = np.concatenate([s.x_times for s in ds.subjects])
            values = np.concatenate([s.x_values for s in ds.subjects])
            mean = estimate_mean(times, values, LocalFitConfig(1.0), grid)
            _, diag = covariance_pairs(ds.subjects, mean, "x")
            estimates.append(estimate_sigma2(diag, half_rows(ds.subjects, mean, "x"),
                                             LocalFitConfig(2.0), grid))
        assert all(0.7 <= v <= 1.3 for v in estimates)


class TestCovarianceDiagonal:
    def test_symmetric_affine_surface_exact(self):
        rng = np.random.default_rng(26)
        s1 = rng.uniform(0, 10, 300)
        s2 = rng.uniform(0, 10, 300)
        vals = 2.0 + 0.3 * (s1 + s2)
        grid = make_grid(0, 10, 21)
        got = covariance_diagonal(grouped(halved(s1, s2, vals)), 3.0, grid)
        assert np.allclose(got, 2.0 + 0.6 * grid.points, atol=1e-8)


def oracle_covariance_diagonal(pairs, b, grid, kernel=Kernel1D(), ridge=1e-10):
    """The dense rotated fit: every aggregated point against every grid point."""
    x1, x2, ybar, w = oracle_aggregate_2d(pairs[:, 0], pairs[:, 1], pairs[:, 2])
    v, u = (x1 + x2) / 2.0, (x1 - x2) / np.sqrt(2.0)
    distinct = np.unique(v)
    counts = np.array([np.count_nonzero(kernel_eval(kernel, (distinct - s) / b) > 0)
                       if not kernel.closed_support
                       else np.count_nonzero(np.abs(distinct - s) <= b) for s in grid.points])
    if np.any(counts < 3):
        raise InsufficientLocalData("fewer than three locations")
    out = []
    for s in grid.points:
        dv = v - s
        kw = kernel_eval(kernel, dv / b) * kernel_eval(kernel, u / b) * w
        X = np.column_stack([np.ones_like(v), dv, u * u])
        m = (X * kw[:, None]).T @ X
        if np.linalg.det(m) <= 1e-14 * m[0, 0] * m[1, 1] * m[2, 2]:
            m += ridge * np.trace(m) / 3.0 * np.eye(3)
        out.append(np.linalg.solve(m, (X * kw[:, None]).T @ ybar)[0])
    return np.array(out)


class TestWindowedCovarianceDiagonal:
    """Inputs of over 3000 kept pairs: several support tiles along the
    diagonal, each reaching its own run of grid points."""

    @staticmethod
    def pairs(seed, n=10000, n_lattice=0, step=0.125):
        rng = np.random.default_rng(seed)
        s1, s2 = rng.uniform(0, 10, (2, n))
        # multiples of the step: exact distances to the grid along the diagonal
        l1, l2 = rng.integers(0, round(10 / step) + 1, (2, n_lattice)) * step
        s1, s2 = np.concatenate([s1, l1]), np.concatenate([s2, l2])
        vals = np.cos(0.4 * s1) * np.cos(0.4 * s2) + rng.normal(0, 0.2, s1.size)
        return np.column_stack([np.concatenate([s1, s2]), np.concatenate([s2, s1]),
                                np.concatenate([vals, vals])])

    @staticmethod
    def assert_several_runs(pairs, b, grid, kernel):
        x1, x2, _, _ = aggregate_2d(pairs[:, 0], pairs[:, 1], pairs[:, 2])
        kept = np.count_nonzero(kernel_eval(kernel, (x1 - x2) / np.sqrt(2.0) / b) > 0)
        assert min(kept // smoothing._TILE_POINTS_1D, int(grid.length / b)) >= 3

    @pytest.mark.parametrize("family", ["epanechnikov", "quartic"])
    def test_matches_dense_fit(self, family, monkeypatch):
        pairs, grid = self.pairs(72), make_grid(0, 10, 41)
        kernel = Kernel1D(family)
        self.assert_several_runs(pairs, 1.2, grid, kernel)
        got = covariance_diagonal(grouped(pairs), 1.2, grid, kernel=kernel)
        assert np.allclose(got, oracle_covariance_diagonal(pairs, 1.2, grid, kernel),
                           rtol=1e-10, atol=1e-10)
        # a block bound far below one tile's size splits every tile
        monkeypatch.setattr(smoothing, "_BLOCK", 3000)
        tiny = covariance_diagonal(grouped(pairs), 1.2, grid, kernel=kernel)
        assert np.allclose(tiny, got, rtol=1e-12, atol=1e-12)

    def test_uniform_kernel_boundary(self):
        # lattice points sit exactly b = 0.5 from grid points along the
        # diagonal, where the uniform kernel still weighs them
        pairs, grid = self.pairs(73, n_lattice=3000), make_grid(0, 10, 21)
        uni = Kernel1D("uniform")
        # lattice points alone, on a grid as fine as the lattice: the tiles'
        # own ends then sit exactly b from grid points too
        fine = self.pairs(73, n=0, n_lattice=40000, step=0.03125)
        for data, grid in ((pairs, grid), (fine, make_grid(0, 10, 321))):
            self.assert_several_runs(data, 0.5, grid, uni)
            got = covariance_diagonal(grouped(data), 0.5, grid, kernel=uni)
            assert np.allclose(got, oracle_covariance_diagonal(data, 0.5, grid, uni),
                               rtol=1e-10, atol=1e-10)

    def test_gap_along_diagonal_insufficient(self):
        pairs, grid = self.pairs(74), make_grid(0, 10, 41)
        v = pairs[:, :2].mean(axis=1)
        gapped = pairs[np.abs(v - 5.0) > 1.0]
        with pytest.raises(InsufficientLocalData):
            covariance_diagonal(grouped(gapped), 0.8, grid)
        with pytest.raises(InsufficientLocalData):
            oracle_covariance_diagonal(gapped, 0.8, grid)


class TestEigendecompose:
    def make_surface(self, grid, rho=RHO):
        psi = basis(grid.points)
        return GridSurface(grid, grid, (psi * rho) @ psi.T)

    def test_three_component_recovery(self):
        grid = make_grid(0, 10, 201)
        eig = eigendecompose(self.make_surface(grid), grid, 6)
        assert eig.n_components == 3
        assert np.allclose(eig.values, RHO, atol=1e-4)
        psi = basis(grid.points)
        for k in range(3):
            diff_plus = eig.functions[:, k] - psi[:, k]
            diff_minus = eig.functions[:, k] + psi[:, k]
            err = min(np.sqrt(grid.weights @ diff_plus**2),
                      np.sqrt(grid.weights @ diff_minus**2))
            assert err < 1e-3

    def test_zero_surface_empty(self):
        grid = make_grid(0, 10, 31)
        eig = eigendecompose(GridSurface(grid, grid, np.zeros((31, 31))), grid, 5)
        assert eig.n_components == 0

    def test_rank_one(self):
        grid = make_grid(0, 10, 101)
        u = basis(grid.points)[:, 1]
        surf = GridSurface(grid, grid, 2.5 * np.outer(u, u))
        eig = eigendecompose(surf, grid, 5)
        assert eig.n_components == 1
        assert eig.values[0] == pytest.approx(2.5, abs=1e-6)
        align = min(np.max(np.abs(eig.functions[:, 0] - u)),
                    np.max(np.abs(eig.functions[:, 0] + u)))
        assert align < 1e-6

    def test_orthonormality(self):
        grid = make_grid(0, 10, 101)
        eig = eigendecompose(self.make_surface(grid), grid, 6)
        for a in range(eig.n_components):
            for b in range(eig.n_components):
                ip = grid.weights @ (eig.functions[:, a] * eig.functions[:, b])
                assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-8)

    def test_sign_convention(self):
        grid = make_grid(0, 10, 101)
        eig = eigendecompose(self.make_surface(grid), grid, 6)
        for k in range(eig.n_components):
            total = grid.weights @ eig.functions[:, k]
            if abs(total) > 1e-12:
                assert total > 0

    def test_not_symmetric(self):
        grid = make_grid(0, 1, 11)
        vals = np.zeros((11, 11))
        vals[0, 1] = 1.0
        with pytest.raises(NotSymmetric):
            eigendecompose(GridSurface(grid, grid, vals), grid, 3)

    def test_at_matches_per_component_interp(self):
        grid = make_grid(0, 10, 41)
        eig = eigendecompose(self.make_surface(grid), grid, 6)
        scale = np.max(np.abs(eig.functions))
        rng = np.random.default_rng(28)
        inside = rng.uniform(0, 10, 50)
        cases = [grid.points, np.array([0.0, 10.0, -1.0, 12.0, 1e-300, 10.0 - 1e-15]),
                 inside, inside.reshape(5, 10)]     # grid points, both ends, (g, n)
        for times in cases:
            got = eig.at(times)
            assert got.shape == times.shape + (eig.n_components,)
            for k in range(eig.n_components):
                want = np.interp(times, grid.points, eig.functions[:, k])
                assert np.max(np.abs(got[..., k] - want)) <= 1e-15 * scale

    def test_orthonormality_random_surfaces_1000(self):
        rng = np.random.default_rng(27)
        grid = make_grid(0, 1, 25)
        for case in range(1000):
            rank = rng.integers(1, 5)
            a = rng.normal(size=(25, rank))
            vals = a @ np.diag(rng.uniform(0.1, 3.0, rank)) @ a.T
            vals = (vals + vals.T) / 2
            eig = eigendecompose(GridSurface(grid, grid, vals), grid, 6)
            if eig.n_components == 0:
                continue
            gram = (eig.functions * grid.weights[:, None]).T @ eig.functions
            assert np.max(np.abs(gram - np.eye(eig.n_components))) < 1e-8, case


def centered(subjects, mean_x, mean_y):
    """The centered predictor and response streams that fit_bin builds."""
    return fpca._centered(subjects, "x", mean_x), fpca._centered(subjects, "y", mean_y)


class TestCrossCovariance:
    def test_affine_raw_pairs_exact(self):
        rng = np.random.default_rng(28)
        grid_s = make_grid(0, 10, 15)
        grid_t = make_grid(0, 10, 13)
        subjects = []
        # build subjects whose centered cross products are exactly affine:
        # x residual = s + 1 at times s, y residual = 1 at all t
        for i in range(20):
            st_ = np.sort(rng.uniform(0, 10, 5))
            tt = np.sort(rng.uniform(0, 10, 4))
            subjects.append(Subject(f"s{i}", 0.5, st_, st_ + 1.0, tt,
                                    np.ones(4)))
        zero_s = GridFunction(grid_s, np.zeros(15))
        zero_t = GridFunction(grid_t, np.zeros(13))
        surf = smooth_cross_covariance(centered(subjects, zero_s, zero_t),
                                       LocalFitConfig((4.0, 4.0)), (grid_s, grid_t))
        want = (grid_s.points + 1.0)[:, None] * np.ones((1, 13))
        assert np.allclose(surf.values, want, atol=1e-8)

    def test_independent_streams_near_zero(self):
        rng = np.random.default_rng(29)
        grid = make_grid(0, 10, 31)
        subjects = []
        for i in range(200):
            st_ = np.sort(rng.uniform(0, 10, 6))
            tt = np.sort(rng.uniform(0, 10, 6))
            subjects.append(Subject(f"s{i}", 0.5, st_, rng.normal(size=6),
                                    tt, rng.normal(size=6)))
        zero = GridFunction(grid, np.zeros(31))
        surf = smooth_cross_covariance(centered(subjects, zero, zero),
                                       LocalFitConfig((2.0, 2.0)), (grid, grid))
        rms = np.sqrt(np.mean(surf.values ** 2))
        assert rms < 0.2

    def test_scalar_mode_curve(self):
        rng = np.random.default_rng(30)
        grid = make_grid(0, 10, 21)
        subjects = []
        for i in range(30):
            st_ = np.sort(rng.uniform(0, 10, 6))
            subjects.append(Subject(f"s{i}", 0.5, st_, st_ * 0.5, None,
                                    np.array([2.0])))
        zero = GridFunction(grid, np.zeros(21))
        curve = smooth_cross_covariance(centered(subjects, zero, 0.0),
                                        LocalFitConfig(3.0), (grid, None))
        assert isinstance(curve, GridFunction)
        # residual product is (0.5 s) * 2 = s exactly
        assert np.allclose(curve.values, grid.points, atol=1e-8)


class TestSigmaMk:
    def test_orthonormal_projection(self):
        grid = make_grid(0, 10, 201)
        psi = basis(grid.points)
        eig_x = EigenSystem(grid, RHO.copy(), psi.copy())
        eig_y = EigenSystem(grid, RHO.copy(), psi.copy())
        cross = GridSurface(grid, grid, 4.0 * np.outer(psi[:, 0], psi[:, 0]))
        got = sigma_mk(eig_x, eig_y, cross, 2, 2)
        want = np.array([[4.0, 0.0], [0.0, 0.0]])
        assert np.allclose(got, want, atol=1e-5)

    def test_zero_cross(self):
        grid = make_grid(0, 10, 51)
        psi = basis(grid.points)
        eig = EigenSystem(grid, RHO.copy(), psi.copy())
        cross = GridSurface(grid, grid, np.zeros((51, 51)))
        assert np.allclose(sigma_mk(eig, eig, cross, 3, 3), 0.0)

    def test_linear_covariate_slope_moments(self):
        # cross-covariance at z = 0.5 has sigma_mm = 1.5 rho_m, off-diagonal 0;
        # verified against brute-force double quadrature
        grid = make_grid(0, 10, 201)
        psi = basis(grid.points)
        eig = EigenSystem(grid, RHO.copy(), psi.copy())
        cross_vals = 1.5 * (psi * RHO) @ psi.T
        cross = GridSurface(grid, grid, cross_vals)
        got = sigma_mk(eig, eig, cross, 3, 3)
        assert np.allclose(got, np.diag(1.5 * RHO), atol=1e-5)
        w = grid.weights
        brute = np.empty((3, 3))
        for m in range(3):
            for k in range(3):
                brute[m, k] = (psi[:, m] * w) @ cross_vals @ (psi[:, k] * w)
        assert np.allclose(got, brute, atol=1e-12)

    def test_truncation_too_large(self):
        grid = make_grid(0, 10, 51)
        psi = basis(grid.points)
        eig = EigenSystem(grid, RHO.copy(), psi.copy())
        cross = GridSurface(grid, grid, np.zeros((51, 51)))
        with pytest.raises(TruncationTooLarge):
            sigma_mk(eig, eig, cross, 4, 3)

    def test_sign_flip_moves_rows_and_columns(self):
        rng = np.random.default_rng(31)
        grid = make_grid(0, 10, 101)
        psi = basis(grid.points)
        eig_x = EigenSystem(grid, RHO.copy(), psi.copy())
        eig_y = EigenSystem(grid, RHO.copy(), psi.copy())
        cross = GridSurface(grid, grid, rng.normal(size=(101, 101)))
        base = sigma_mk(eig_x, eig_y, cross, 3, 3)
        flipped_x = EigenSystem(grid, RHO.copy(), psi * np.array([1, -1, 1]))
        got = sigma_mk(flipped_x, eig_y, cross, 3, 3)
        want = base.copy()
        want[1, :] *= -1
        assert np.allclose(got, want, atol=0)
        flipped_y = EigenSystem(grid, RHO.copy(), psi * np.array([1, 1, -1]))
        got = sigma_mk(eig_x, flipped_y, cross, 3, 3)
        want = base.copy()
        want[:, 2] *= -1
        assert np.allclose(got, want, atol=0)


class TestBlupScores:
    def test_scalar_shrinkage(self):
        grid = make_grid(0, 10, 11)
        # lambda = 1, phi(t) = 1, sigma2 = 0.5, single observation V = 3
        eig = EigenSystem(grid, np.array([1.0]), np.ones((grid.n, 1)))
        score = blup_scores(np.array([4.0]), np.array([3.0]), np.array([0.0]), eig, 0.5, 1)
        assert score[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_residual_zero_scores(self):
        grid = make_grid(0, 10, 21)
        eig = EigenSystem(grid, RHO.copy(), basis(grid.points))
        times = np.array([1.0, 3.0, 6.0])
        mu = np.array([2.0, 1.0, 0.0])
        scores = blup_scores(times, mu, mu, eig, 1.0, 3)
        assert np.allclose(scores, 0.0, atol=1e-12)

    def test_linear_in_residuals(self):
        rng = np.random.default_rng(32)
        grid = make_grid(0, 10, 51)
        eig = EigenSystem(grid, RHO.copy(), basis(grid.points))
        times = np.sort(rng.uniform(0, 10, 7))
        v = rng.normal(size=7)
        s1 = blup_scores(times, v, np.zeros(7), eig, 1.0, 3)
        s2 = blup_scores(times, 2 * v, np.zeros(7), eig, 1.0, 3)
        assert np.allclose(s2, 2 * s1, atol=1e-10)

    def test_leading_scores_condition_on_every_component(self):
        # fewer scores than components: the same rows of the operator that
        # conditions on the whole retained spectrum
        rng = np.random.default_rng(34)
        grid = make_grid(0, 10, 51)
        eig = EigenSystem(grid, RHO.copy(), basis(grid.points))
        times = np.sort(rng.uniform(0, 10, 5))
        v = rng.normal(size=5)
        full = blup_scores(times, v, np.zeros(5), eig, 0.5, 3)
        assert np.allclose(blup_scores(times, v, np.zeros(5), eig, 0.5, 1), full[:1],
                           rtol=1e-14, atol=0)
        sigma = observation_covariance(times, eig, 0.5)
        want = RHO * (eig.at(times).T @ np.linalg.solve(sigma, v))
        assert np.allclose(full, want, rtol=1e-12, atol=0)

    def test_dense_noiseless_recovery(self):
        rng = np.random.default_rng(33)
        grid = make_grid(0, 10, 101)
        eig = EigenSystem(grid, RHO.copy(), basis(grid.points))
        times = np.linspace(0, 10, 31)
        psi_t = basis(times)
        errs = []
        for _ in range(50):
            zeta = rng.normal(0, np.sqrt(RHO))
            v = psi_t @ zeta
            got = blup_scores(times, v, np.zeros(31), eig, 0.0, 3)
            errs.append(got - zeta)
        rms = np.sqrt(np.mean(np.square(errs)))
        assert rms < 0.05

    def test_too_many_components(self):
        grid = make_grid(0, 10, 21)
        eig = EigenSystem(grid, np.array([1.0]), np.ones((21, 1)))
        with pytest.raises(TruncationTooLarge):
            blup_scores(np.array([1.0]), np.array([1.0]), np.array([0.0]), eig, 0.5, 2)

    def test_no_observations(self):
        grid = make_grid(0, 10, 21)
        eig = EigenSystem(grid, np.array([1.0]), np.ones((21, 1)))
        with pytest.raises(SingularCovariance):
            blup_scores(np.array([]), np.array([]), np.array([]), eig, 0.5, 1)


class TestBatchedObservationCovariance:
    GRID = make_grid(0, 10, 31)

    def stack(self, n, seed):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0, 10, (12, n)), axis=1)
        times[5] = times[4]                 # a repeated time vector
        return times

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_matches_per_vector_calls(self, n):
        # a (12, n) stack, one row repeated, gives what one call per row gives:
        # the dense reference, and the operator through its row dedupe
        eig = EigenSystem(self.GRID, RHO.copy(), basis(self.GRID.points))
        times = self.stack(n, 95 + n)
        for sigma2 in (1e-12, 0.3):
            batched = observation_covariance(times, eig, sigma2)
            assert batched.shape == (12, n, n)
            single = np.stack([observation_covariance(t, eig, sigma2) for t in times])
            assert np.allclose(batched, single, rtol=1e-14, atol=0)
            phi, ops = _blup_operator(times, eig, sigma2)
            assert phi.shape == (12, n, 3) and ops.shape == (12, 3, n)
            for t, p, op in zip(times, phi, ops):
                p1, op1 = _blup_operator(t[None, :], eig, sigma2)
                assert np.array_equal(p, p1[0])
                assert np.allclose(op, op1[0], rtol=1e-12, atol=1e-14 * np.abs(op1).max())

    @given(n_comp=st.integers(1, 4), g=st.integers(1, 6), n=st.integers(1, 8),
           layout=st.sampled_from(["distinct", "duplicate", "one_time"]),
           repeat=st.booleans(), sigma2=st.sampled_from([0.05, 0.5, 2.0]),
           seed=st.integers(0, 2**32 - 1))
    @example(n_comp=1, g=3, n=1, layout="distinct", repeat=False, sigma2=0.5, seed=0)
    @example(n_comp=4, g=2, n=1, layout="distinct", repeat=True, sigma2=0.05, seed=1)
    @example(n_comp=1, g=4, n=5, layout="duplicate", repeat=True, sigma2=0.5, seed=2)
    @example(n_comp=3, g=5, n=6, layout="one_time", repeat=True, sigma2=0.05, seed=3)
    @settings(max_examples=200, deadline=None)
    def test_woodbury_matches_dense_solve(self, n_comp, g, n, layout, repeat, sigma2, seed):
        # an eigensystem of n_comp components and a (g, n) stack of time
        # vectors that may repeat a row, repeat a time within each row or
        # put every time of a row at one point
        rng = np.random.default_rng(seed)
        funcs = np.linalg.qr(rng.normal(size=(self.GRID.n, n_comp)))[0] * 2.0
        eig = EigenSystem(self.GRID, np.sort(rng.uniform(0.05, 5.0, n_comp))[::-1], funcs)
        times = np.sort(rng.uniform(0, 10, (g, n)), axis=1)
        if layout == "duplicate" and n > 1:
            times[:, 1] = times[:, 0]
        elif layout == "one_time":
            times[:] = times[:, :1]
        if repeat and g > 1:
            times[-1] = times[0]
        resid = rng.normal(size=(g, n))

        phi, ops = _blup_operator(times, eig, sigma2)
        assert phi.shape == (g, n, n_comp) and ops.shape == (g, n_comp, n)
        sigma = observation_covariance(times, eig, sigma2)
        want = eig.values * np.einsum("gnk,gn->gk", eig.at(times),
                                      np.linalg.solve(sigma, resid[..., None])[..., 0])
        got = np.einsum("gkn,gn->gk", ops, resid)
        assert np.isfinite(got).all()
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-10 * scale)

    def test_variance_floor_inside_the_operator(self):
        eig = EigenSystem(self.GRID, RHO.copy(), basis(self.GRID.points))
        times = self.stack(4, 97)
        _, floored = _blup_operator(times, eig, fpca.VARIANCE_FLOOR)
        for sigma2 in (0.0, -1.0):
            assert np.array_equal(_blup_operator(times, eig, sigma2)[1], floored)

    def test_blup_operator_shares_repeated_vectors(self):
        eig = EigenSystem(self.GRID, RHO.copy(), basis(self.GRID.points))
        times = self.stack(5, 99)
        phi, ops = _blup_operator(times, eig, 0.5)
        assert phi.shape == (12, 5, 3) and ops.shape == (12, 3, 5)
        assert np.array_equal(ops[4], ops[5])
        rng = np.random.default_rng(99)
        for t, op in zip(times, ops):
            r = rng.normal(size=5)
            want = blup_scores(t, r, np.zeros(5), eig, 0.5, 2)
            assert np.allclose(op[:2] @ r, want, rtol=1e-12, atol=1e-14)

    def test_count_groups_positions(self):
        groups = _count_groups([3, 0, 2, 3])
        assert [idx.tolist() for idx, _ in groups] == [[2], [0, 3]]
        assert [pos.tolist() for _, pos in groups] == [[[3, 4]], [[0, 1, 2], [5, 6, 7]]]

    @pytest.mark.parametrize("case", ["duplicates", "last_column", "signed_zero", "one_row"])
    def test_unique_rows_match_numpy(self, case):
        rng = np.random.default_rng(100)
        if case == "duplicates":
            a = rng.integers(0, 4, (30, 3)) * 0.5      # many repeated rows
        elif case == "last_column":
            a = np.tile(rng.uniform(0, 10, 6), (8, 1))
            a[:, -1] = [3.0, 1.0, 3.0, 2.0, 1.0, 1.0 + 1e-12, 3.0, 2.0]
        elif case == "signed_zero":
            a = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [-0.0, 0.5]])
        else:
            a = rng.uniform(0, 10, (1, 5))
        got, inverse = _unique_rows(a)
        want, want_inverse = np.unique(a, axis=0, return_inverse=True)
        assert np.array_equal(got, want)
        assert np.array_equal(inverse, want_inverse.ravel())
        assert np.array_equal(got[inverse], a)
