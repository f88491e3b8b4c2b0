"""Unit tests for the uniform-grid spatial index."""

import numpy as np
import pytest

from repro.geometry.spatial_index import GridIndex


def brute_force_radius(points, center, radius):
    d2 = np.sum((points - np.asarray(center)) ** 2, axis=1)
    return np.where(d2 <= radius * radius + 1e-12)[0]


class TestGridIndex:
    def test_query_radius_matches_brute_force(self, rng):
        pts = rng.uniform(0, 100, size=(200, 2))
        index = GridIndex(pts, cell_size=10.0)
        for _ in range(20):
            center = rng.uniform(0, 100, size=2)
            radius = rng.uniform(1, 30)
            expected = brute_force_radius(pts, center, radius)
            got = index.query_radius(center, radius)
            assert np.array_equal(np.sort(expected), got)

    def test_query_includes_points_on_boundary(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        index = GridIndex(pts, cell_size=5.0)
        assert list(index.query_radius([0.0, 0.0], 10.0)) == [0, 1]

    def test_query_empty_result(self):
        pts = np.array([[0.0, 0.0]])
        index = GridIndex(pts, cell_size=1.0)
        assert len(index.query_radius([100.0, 100.0], 5.0)) == 0

    def test_results_sorted(self, rng):
        pts = rng.uniform(0, 50, size=(100, 2))
        index = GridIndex(pts, cell_size=7.0)
        result = index.query_radius([25, 25], 20.0)
        assert np.all(np.diff(result) > 0)

    def test_zero_radius_returns_exact_matches_only(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0]])
        index = GridIndex(pts, cell_size=1.0)
        assert list(index.query_radius([1.0, 1.0], 0.0)) == [0]

    def test_query_pairs_symmetric_small_case(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        index = GridIndex(pts, cell_size=2.0)

        def pairs(radius):
            first, second = index.query_pairs(radius)
            return list(zip(first.tolist(), second.tolist()))

        assert pairs(1.5) == [(0, 1)]
        assert pairs(5.0) == [(0, 1), (0, 2), (1, 2)]
        first, second = index.query_pairs(0.5)
        assert first.size == second.size == 0

    def test_nearest(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [3.0, 3.0]])
        index = GridIndex(pts, cell_size=5.0)
        assert index.nearest([2.5, 2.5]) == 2
        assert index.nearest([9.0, 9.5]) == 1

    def test_nearest_empty_raises(self):
        index = GridIndex(np.empty((0, 2)), cell_size=1.0)
        with pytest.raises(ValueError):
            index.nearest([0.0, 0.0])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((3, 3)), cell_size=1.0)
        with pytest.raises(ValueError):
            GridIndex(np.zeros((3, 2)), cell_size=0.0)
        index = GridIndex(np.zeros((3, 2)), cell_size=1.0)
        with pytest.raises(ValueError):
            index.query_radius([0, 0], -1.0)

    def test_properties(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        index = GridIndex(pts, cell_size=2.5)
        assert index.size == 2
        assert index.cell_size == 2.5
        assert index.points is pts or np.allclose(index.points, pts)

    def test_negative_coordinates_supported(self):
        pts = np.array([[-5.0, -5.0], [-4.0, -5.0], [10.0, 10.0]])
        index = GridIndex(pts, cell_size=3.0)
        assert list(index.query_radius([-5.0, -5.0], 1.5)) == [0, 1]
