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


class TestRngBeta:
    def test_support_shape_and_domain(self):
        state = RngState(15)
        for a in (1e-5, 0.2, 1.0, 20.0):
            draws = state.beta(a, size=2000)
            assert draws.shape == (2000,) and draws.min() >= 0.0 and draws.max() <= 1.0
        assert type(RngState(16).beta(0.5)) is float
        for a in (0.0, -1.0):
            with pytest.raises(ValueError):
                RngState(0).beta(a)


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell fails")


def _fail_write_csv(path):
    from vrlkit.cli import write_csv

    write_csv(path, ["a", "b"], [("x", 1), ("y", _Unprintable())])


def _fail_save_checkpoint(path):
    from vrlkit.nn import LayerSpec, Network, save_checkpoint

    net = Network([LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "identity")], RngState(0))
    net.weights[1] = [["not a float"]]
    save_checkpoint(net, path)


def _fail_save_csv(path):
    from vrlkit.datagen import Dataset, save_csv

    ds = Dataset(np.zeros((2, 2)), np.zeros(2, dtype=np.int64), k=1, name="d")
    ds.x = np.array([[1.0, 2.0], ["x", 3.0]], dtype=object)
    save_csv(ds, path)


def _fail_svg(path):
    from vrlkit.evalkit import _svg

    _svg(10, 10, ["<g/>", "<text>é</text>"], "x", 5, "y", path)


def _fail_body(path):
    from vrlkit.tensor import atomic_open

    with atomic_open(path, "wb") as f:
        f.write(b"partial")
        raise RuntimeError("body fails")


class TestAtomicWrite:
    """A write that fails partway leaves the old file and no temp file."""

    @pytest.mark.parametrize(
        "write",
        [_fail_body, _fail_write_csv, _fail_save_checkpoint, _fail_save_csv, _fail_svg],
        ids=["atomic_open", "write_csv", "save_checkpoint", "save_csv", "svg"],
    )
    def test_failed_write_keeps_old_bytes(self, tmp_path, write):
        target = tmp_path / "artifact"
        target.write_bytes(b"old bytes\n")
        with pytest.raises((RuntimeError, ValueError)):
            write(target)
        assert target.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_success_replaces_and_leaves_one_file(self, tmp_path):
        from vrlkit.tensor import atomic_open

        target = tmp_path / "artifact"
        target.write_bytes(b"old")
        with atomic_open(target, "w", encoding="ascii") as f:
            f.write("new\n")
        assert target.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
