"""Tests for the shared geometry layer.

The load-bearing fact checked here is the padding identity: for a data
point b with ||b|| <= 1 and a query a with ||a|| <= C, the two asymmetric
embeddings are unit vectors satisfying

    ||query_pad(a) - data_pad(b)||^2 = 2 - (2/C) <a, b>,

so distance comparisons on the embedded sphere order points by inner
product.  The rest covers input validation, the seeded RNG contract, and
bit-exact dataset file round-trips.
"""

import numpy as np
import pytest

from sketchmatch.core import (
    DimensionMismatch,
    NormBoundError,
    ParameterError,
    PointSet,
    SeededRng,
    as_vector,
    child_seed,
    distance,
    inner_product,
    load_csv,
    load_jsonl,
    save_csv,
    save_jsonl,
    transform_data,
    transform_data_rows,
    transform_query,
)


def _ball(rng, n, d, radius=1.0):
    """n points drawn uniformly at random inside the radius-r ball."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / d)
    return x * r[:, None]


class TestVectorBasics:
    def test_as_vector_roundtrip(self):
        v = as_vector([1.0, 2.0, 3.0])
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            as_vector(np.zeros((2, 2)))

    def test_as_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])

    def test_as_vector_checks_dim(self):
        with pytest.raises(DimensionMismatch):
            as_vector([1.0, 2.0], dim=3)

    def test_inner_product_exact(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        assert inner_product(a, b) == float(a @ b)

    def test_distance_exact(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        assert distance(a, b) == float(np.linalg.norm(a - b))

    def test_mismatched_operands(self):
        with pytest.raises(DimensionMismatch):
            inner_product([1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            distance([1.0], [1.0, 0.0])


class TestPointSet:
    def test_accepts_points_within_bound(self):
        rng = np.random.default_rng(0)
        p = PointSet(_ball(rng, 20, 5, radius=2.0), norm_bound=2.0)
        assert p.n == 20
        assert p.dim == 5

    def test_rejects_norm_violation(self):
        with pytest.raises(NormBoundError):
            PointSet(np.array([[1.5, 0.0]]), norm_bound=1.0)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            PointSet(np.zeros((0, 3)))

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            PointSet(np.zeros(3))

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ParameterError):
            PointSet(np.zeros((1, 3)), norm_bound=0.0)


class TestPaddingIdentity:
    """The asymmetric embeddings and their exact distance identity."""

    def test_embeddings_are_unit_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            b = _ball(rng, 1, 6)[0]
            a = _ball(rng, 1, 6, radius=3.0)[0]
            assert abs(np.linalg.norm(transform_data(b)) - 1.0) < 1e-12
            assert abs(np.linalg.norm(transform_query(a, scale=3.0)) - 1.0) < 1e-12

    def test_distance_encodes_inner_product(self):
        """||query_pad(a) - data_pad(b)||^2 = 2 - (2/C) <a, b>."""
        rng = np.random.default_rng(12)
        scale = 2.5
        for _ in range(300):
            b = _ball(rng, 1, 8)[0]
            a = _ball(rng, 1, 8, radius=scale)[0]
            q = transform_query(a, scale=scale)
            p = transform_data(b)
            lhs = float(np.sum((q - p) ** 2))
            rhs = 2.0 - (2.0 / scale) * float(a @ b)
            assert abs(lhs - rhs) < 1e-12

    def test_boundary_points_have_zero_tail(self):
        e = np.zeros(4)
        e[0] = 1.0
        assert transform_data(e)[-2] == 0.0
        assert transform_query(e, scale=1.0)[-1] == 0.0

    def test_zero_point_pads_to_pure_tail(self):
        z = transform_data(np.zeros(3))
        np.testing.assert_array_equal(z, [0.0, 0.0, 0.0, 1.0, 0.0])

    def test_norm_violations_rejected(self):
        with pytest.raises(NormBoundError):
            transform_data([1.1, 0.0])
        with pytest.raises(NormBoundError):
            transform_query([2.0, 0.0], scale=1.0)

    def test_rows_equal_transform_data_bitwise(self):
        """Each row's embedding equals that row's alone, for odd and even
        widths, and a row over 1 is rejected as a lone point is."""
        rng = np.random.default_rng(13)
        for n, d in [(1, 1), (7, 32), (40, 33), (9, 128)]:
            b = _ball(rng, n, d)
            b[0] /= np.linalg.norm(b[0])
            np.testing.assert_array_equal(
                transform_data_rows(b), np.stack([transform_data(r) for r in b]))
        b = _ball(rng, 5, 4)
        b[3] = [1.1, 0.0, 0.0, 0.0]
        with pytest.raises(NormBoundError) as want:
            transform_data(b[3])
        with pytest.raises(NormBoundError) as got:
            transform_data_rows(b)
        assert str(got.value) == str(want.value)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ParameterError):
            transform_query([0.5], scale=0.0)

    def test_slack_just_over_one_is_clamped(self):
        # A norm within the documented slack is treated as exactly 1, not NaN.
        v = np.array([1.0 + 5e-10, 0.0])
        out = transform_data(v)
        assert np.all(np.isfinite(out))
        assert out[-2] == 0.0


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = SeededRng(123).gen.random(1000)
        b = SeededRng(123).gen.random(1000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededRng(1).gen.random(100)
        b = SeededRng(2).gen.random(100)
        assert not np.array_equal(a, b)

    def test_spawn_is_stable_and_independent(self):
        r1 = SeededRng(9).spawn(4).gen.random(100)
        r2 = SeededRng(9).spawn(4).gen.random(100)
        r3 = SeededRng(9).spawn(5).gen.random(100)
        np.testing.assert_array_equal(r1, r2)
        assert not np.array_equal(r1, r3)

    def test_child_seed_matches_spawn(self):
        """child_seed(seed, k) names the same stream as SeededRng(seed).spawn(k)."""
        via_child = SeededRng(child_seed(77, 3)).gen.random(50)
        via_spawn = SeededRng(77).spawn(3).gen.random(50)
        np.testing.assert_array_equal(via_child, via_spawn)

    def test_child_seed_accepts_all_seed_types(self):
        base = np.random.SeedSequence(42)
        a = SeededRng(child_seed(42, 1)).gen.random(10)
        b = SeededRng(child_seed(base, 1)).gen.random(10)
        c = SeededRng(child_seed(SeededRng(42), 1)).gen.random(10)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_frozen_stream_head(self):
        # Pins the PCG64 stream so an accidental generator change is caught.
        head = SeededRng(0).gen.integers(0, 1 << 16, size=4)
        np.testing.assert_array_equal(head, [55746, 41743, 33497, 17680])


class TestDatasetFiles:
    def test_csv_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((17, 5))
        path = tmp_path / "pts.csv"
        save_csv(path, pts)
        back = load_csv(path)
        np.testing.assert_array_equal(back, pts)

    def test_jsonl_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((17, 5))
        path = tmp_path / "pts.jsonl"
        save_jsonl(path, pts)
        back = load_jsonl(path)
        np.testing.assert_array_equal(back, pts)

    def test_formats_agree(self, tmp_path):
        rng = np.random.default_rng(23)
        pts = _ball(rng, 9, 4)
        save_csv(tmp_path / "a.csv", pts)
        save_jsonl(tmp_path / "a.jsonl", pts)
        np.testing.assert_array_equal(
            load_csv(tmp_path / "a.csv"), load_jsonl(tmp_path / "a.jsonl")
        )

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_csv_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("dim=3\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(DimensionMismatch):
            load_csv(path)

    def test_jsonl_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text('{"v": [1.0, 2.0]}\n{"v": [1.0]}\n')
        with pytest.raises(DimensionMismatch):
            load_jsonl(path)

    def test_saved_bytes_are_deterministic(self, tmp_path):
        rng = np.random.default_rng(24)
        pts = rng.standard_normal((6, 3))
        save_csv(tmp_path / "x1.csv", pts)
        save_csv(tmp_path / "x2.csv", pts)
        assert (tmp_path / "x1.csv").read_bytes() == (tmp_path / "x2.csv").read_bytes()
