import math

import numpy as np
import pytest

from vrlkit.tensor import RngState


class TestRngUniform:
    def test_empty(self):
        assert RngState(3).uniform(0).size == 0

    def test_same_seed_identical(self):
        a = RngState(42).uniform(1000)
        b = RngState(42).uniform(1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            RngState(1).uniform(100), RngState(2).uniform(100)
        )

    def test_split_streams_independent_of_consumption(self):
        root = RngState(7)
        child_before = root.split(5).uniform(10)
        root2 = RngState(7)
        root2.uniform(500)  # consuming the parent must not move the child
        child_after = root2.split(5).uniform(10)
        assert np.array_equal(child_before, child_after)

    def test_mean_within_three_sigma(self):
        n = 10**6
        draws = RngState(2024).uniform(n)
        se = 1.0 / math.sqrt(12 * n)
        assert abs(draws.mean() - 0.5) < 3 * se
        assert draws.min() >= 0.0 and draws.max() < 1.0


class TestRngGamma:
    def test_moments_shape_two(self):
        n = 10**6
        draws = RngState(11).gamma(2.0, size=n)
        se = math.sqrt(2.0 / n)  # var of Gamma(2,1) is 2
        assert abs(draws.mean() - 2.0) < 3 * se

    def test_moments_shape_below_one(self):
        n = 10**6
        draws = RngState(12).gamma(0.2, size=n)
        se = math.sqrt(0.2 / n)
        assert abs(draws.mean() - 0.2) < 3 * se

    def test_positive_support(self):
        state = RngState(13)
        for shape in (0.2, 0.7, 1.0, 3.5):
            draws = state.gamma(shape, size=2000)
            assert draws.shape == (2000,)  # size is a count, never the scale
            assert draws.min() > 0.0
            assert state.gamma(shape, size=0).shape == (0,)
        assert RngState(14).gamma(1.5) > 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            RngState(0).gamma(0.0)
        with pytest.raises(ValueError):
            RngState(0).gamma(-1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RngState(0).uniform(-1)

    def test_scalar_matches_repeat_determinism(self):
        a = RngState(5).gamma(1.3)
        b = RngState(5).gamma(1.3)
        assert type(a) is float
        assert a == b
