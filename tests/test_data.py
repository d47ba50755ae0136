from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcflr.data import (
    LongitudinalDataset,
    Subject,
    load_csv,
    partition,
    save_csv,
)
from vcflr.errors import DomainViolation, EmptyBin, ParseError


def toy_dataset(n=12, seed=0, scalar=False):
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(n):
        z = rng.uniform(0, 1)
        st_ = np.sort(rng.uniform(0, 10, 4))
        if scalar:
            subjects.append(Subject(f"s{i}", z, st_, rng.normal(size=4),
                                    None, np.array([rng.normal()])))
        else:
            tt = np.sort(rng.uniform(0, 10, 3))
            subjects.append(Subject(f"s{i}", z, st_, rng.normal(size=4),
                                    tt, rng.normal(size=3)))
    return LongitudinalDataset(subjects, (0, 10), None if scalar else (0, 10),
                              (0, 1), scalar_response=scalar)


class TestCsvRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        ds = toy_dataset(seed=1)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path, (0, 10), (0, 1), (0, 10))
        assert back.n == ds.n
        for a, b in zip(ds.subjects, back.subjects):
            assert a.id == b.id
            assert a.z == b.z
            assert np.array_equal(a.x_times, b.x_times)
            assert np.array_equal(a.x_values, b.x_values)
            assert np.array_equal(a.y_times, b.y_times)
            assert np.array_equal(a.y_values, b.y_values)

    def test_scalar_round_trip(self, tmp_path):
        ds = toy_dataset(seed=2, scalar=True)
        path = tmp_path / "scalar.csv"
        save_csv(ds, path)
        back = load_csv(path, (0, 10), (0, 1), None, scalar_response=True)
        assert back.scalar_response
        for a, b in zip(ds.subjects, back.subjects):
            assert a.y_scalar == b.y_scalar

    def test_unknown_stream_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,z,stream,time,value\n"
                        "a,0.5,X,1.0,2.0\n"
                        "a,0.5,Q,1.0,2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path, (0, 10), (0, 1), (0, 10))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,z,stream,time,value\na,0.5,X,1,2\n")
        with pytest.raises(ParseError, match="line 1"):
            load_csv(path, (0, 10), (0, 1), (0, 10))

    def test_domain_violation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,z,stream,time,value\n"
                        "a,0.5,X,1.0,2.0\na,0.5,X,11.0,2.0\na,0.5,Y,1.0,0.0\n")
        with pytest.raises(DomainViolation):
            load_csv(path, (0, 10), (0, 1), (0, 10))

    def test_generated_file_shape(self, tmp_path):
        from vcflr.simulation import REGULAR, generate
        ds, _ = generate(REGULAR, 50, seed=3)
        path = tmp_path / "sim.csv"
        save_csv(ds, path)
        back = load_csv(path, (0, 10), (0, 1), (0, 10))
        assert back.n == 50
        assert all(s.n_x == 31 and s.n_y == 31 for s in back.subjects)


class TestNonFiniteObservations:
    """NaN and inf fail typed where the data enter, in times and in values
    of both streams: every comparison with NaN is false, so the domain
    checks alone would let a NaN time through."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["x_times", "x_values", "y_times", "y_values"])
    def test_dataset_rejects(self, field, bad):
        ds = toy_dataset(seed=5)
        arr = getattr(ds.subjects[3], field).copy()
        arr[1] = bad
        subjects = list(ds.subjects)
        subjects[3] = replace(subjects[3], **{field: arr})
        with pytest.raises(DomainViolation, match="subject s3"):
            LongitudinalDataset(subjects, ds.s_domain, ds.t_domain, ds.z_domain)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_scalar_response_value(self, bad, tmp_path):
        path = tmp_path / "scalar.csv"
        path.write_text("subject_id,z,stream,time,value\n"
                        f"a,0.5,X,1.0,2.0\na,0.5,X,2.0,2.5\na,0.5,Y,,{bad}\n")
        with pytest.raises(DomainViolation, match="non-finite"):
            load_csv(path, (0, 10), (0, 1), None, scalar_response=True)

    @pytest.mark.parametrize("row", ["a,0.5,X,nan,2.0", "a,0.5,X,1.5,nan",
                                     "a,0.5,Y,inf,0.0", "a,0.5,Y,2.0,-inf"])
    def test_csv_rows(self, row, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,z,stream,time,value\n"
                        f"a,0.5,X,1.0,2.0\na,0.5,Y,1.0,0.0\n{row}\n")
        with pytest.raises(DomainViolation, match="non-finite"):
            load_csv(path, (0, 10), (0, 1), (0, 10))

    def test_sparse_study_data(self):
        # the fit of these data used to end in an untyped error from CV
        from vcflr.simulation import SPARSE, generate
        ds, _ = generate(SPARSE, 120, seed=3)
        first = ds.subjects[0]
        values = first.x_values.copy()
        values[0] = np.nan
        subjects = [replace(first, x_values=values)] + ds.subjects[1:]
        with pytest.raises(DomainViolation, match="non-finite"):
            LongitudinalDataset(subjects, ds.s_domain, ds.t_domain, ds.z_domain)


class TestPartition:
    def test_centers_and_width(self):
        ds = toy_dataset(n=40, seed=4)
        part = partition(ds, 4, min_count=0)
        assert part.width == pytest.approx(0.25)
        assert np.allclose(part.centers, [0.125, 0.375, 0.625, 0.875])

    def test_single_bin(self):
        ds = toy_dataset(n=10, seed=5)
        part = partition(ds, 1, min_count=0)
        assert part.n_bins == 1
        assert part.counts[0] == 10

    def test_counts_match_histogram_oracle(self):
        rng = np.random.default_rng(7)
        subjects = [Subject(f"s{i}", rng.uniform(0, 1),
                            np.array([1.0, 2.0]), np.zeros(2),
                            np.array([1.0]), np.zeros(1)) for i in range(400)]
        ds = LongitudinalDataset(subjects, (0, 10), (0, 10), (0, 1))
        part = partition(ds, 8, min_count=0)
        z = ds.z_values()
        oracle, _ = np.histogram(z, bins=8, range=(0, 1))
        assert np.array_equal(part.counts, oracle)

    def test_top_edge_assigned_to_last_bin(self):
        subjects = [Subject("a", 1.0, np.array([1.0, 2.0]), np.zeros(2),
                            np.array([1.0]), np.zeros(1)),
                    Subject("b", 0.0, np.array([1.0, 2.0]), np.zeros(2),
                            np.array([1.0]), np.zeros(1))]
        ds = LongitudinalDataset(subjects, (0, 10), (0, 10), (0, 1))
        part = partition(ds, 4, min_count=0)
        assert part.index_sets[3].tolist() == [0]
        assert part.index_sets[0].tolist() == [1]

    def test_occupancy_guard(self):
        ds = toy_dataset(n=8, seed=8)
        with pytest.raises(EmptyBin) as err:
            partition(ds, 8, min_count=5)
        assert err.value.bin_index is not None

    def test_counts_sum_and_reorder_invariance(self):
        ds = toy_dataset(n=37, seed=9)
        part = partition(ds, 5, min_count=0)
        assert part.counts.sum() == 37
        shuffled = LongitudinalDataset(ds.subjects[::-1], ds.s_domain,
                                       ds.t_domain, ds.z_domain)
        part2 = partition(shuffled, 5, min_count=0)
        ids1 = [{ds.subjects[i].id for i in s} for s in part.index_sets]
        ids2 = [{shuffled.subjects[i].id for i in s} for s in part2.index_sets]
        assert ids1 == ids2

    @given(n=st.integers(6, 60), p=st.integers(1, 6), seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_assignment_is_total(self, n, p, seed):
        ds = toy_dataset(n=n, seed=seed)
        part = partition(ds, p, min_count=0)
        idx = np.concatenate(part.index_sets)
        assert np.array_equal(np.sort(idx), np.arange(n))

    def test_balanced_for_uniform_z(self):
        # max/min bin count ratio stays below 2 for nearly all draws; the
        # true rate at n=400, P=8 is ~0.981, so bound it at 0.97 with enough
        # draws to keep the Monte Carlo error small
        rng = np.random.default_rng(10)
        ok = 0
        reps = 2000
        for rep in range(reps):
            z = rng.uniform(0, 1, 400)
            counts, _ = np.histogram(z, bins=8, range=(0, 1))
            if counts.max() / counts.min() < 2:
                ok += 1
        assert ok / reps >= 0.97

    def test_nearest_bin_of_scalars_and_arrays(self):
        part = partition(toy_dataset(n=40, seed=3), 4, min_count=1)
        z = np.array([0.0, 0.2, 0.25, 0.26, 0.5, 0.99, 1.0])
        # z = 0.25 and 0.5 sit halfway between two centers: the lower wins
        assert part.nearest_bin(z).tolist() == [0, 0, 0, 1, 1, 3, 3]
        assert [part.nearest_bin(v) for v in z] == part.nearest_bin(z).tolist()
