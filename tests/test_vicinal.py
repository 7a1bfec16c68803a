import itertools
import math

import numpy as np
import pytest
from scipy import stats

from vrlkit import vicinal
from vrlkit.nn import Network, backward, cross_entropy_soft, forward, softmax
from vrlkit.tensor import RngState, ShapeError
from vrlkit.vicinal import (
    BetaParams,
    MixedBatch,
    cutmix_batch,
    mixup_batch,
    regmix_loss,
    sample_lambdas,
)

from test_nn import assert_grads_close, finite_diff_grads, random_net


def symmetric_beta_variance(alpha):
    return 1.0 / (4.0 * (2.0 * alpha + 1.0))


class TestSampleLambda:
    def test_alpha_one_is_uniform(self):
        n = 10**6
        draws = sample_lambdas(BetaParams(1.0), n, RngState(1))
        se_mean = math.sqrt(1.0 / 12.0 / n)
        assert abs(draws.mean() - 0.5) < 3 * se_mean
        # variance of the sample variance of U(0,1): (mu4 - sigma^4)/n
        mu4, var = 1.0 / 80.0, 1.0 / 12.0
        se_var = math.sqrt((mu4 - var**2) / n)
        assert abs(draws.var() - var) < 3 * se_var

    def test_small_alpha_variance(self):
        n = 10**6
        alpha = 0.2
        draws = sample_lambdas(BetaParams(alpha), n, RngState(2))
        want = symmetric_beta_variance(alpha)
        assert want == pytest.approx(0.17857142857, abs=1e-9)
        mu4 = 3.0 / (16.0 * (2 * alpha + 1) * (2 * alpha + 3))
        se_var = math.sqrt((mu4 - want**2) / n)
        assert abs(draws.var() - want) < 3 * se_var

    def test_alpha_20_concentrates_near_half(self):
        # central interval holding 80% of Beta(20,20) mass, from a numeric CDF
        lo = stats.beta.ppf(0.1, 20, 20)
        hi = stats.beta.ppf(0.9, 20, 20)
        n = 10**5
        draws = sample_lambdas(BetaParams(20.0), n, RngState(3))
        frac = ((draws >= lo) & (draws <= hi)).mean()
        assert abs(frac - 0.8) < 0.01

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 10.0])
    def test_chi_square_goodness_of_fit(self, alpha):
        n = 10**6
        bins = 50
        draws = sample_lambdas(BetaParams(alpha), n, RngState(int(alpha * 10)))
        edges = stats.beta.ppf(np.linspace(0.0, 1.0, bins + 1), alpha, alpha)
        edges[0], edges[-1] = 0.0, 1.0
        observed, _ = np.histogram(draws, bins=edges)
        expected = n / bins
        statistic = ((observed - expected) ** 2 / expected).sum()
        p = stats.chi2.sf(statistic, bins - 1)
        assert p > 0.001

    def test_scalar_draw_in_unit_interval(self):
        rng = RngState(4)
        for _ in range(100):
            lam = sample_lambdas(BetaParams(0.5), 1, rng)
            assert lam.shape == (1,) and 0.0 < lam[0] < 1.0

    def test_draws_are_one_beta_call(self):
        # sample_lambdas is RngState.beta, bit for bit; a single mixup_batch
        # call draws its sort keys, then its lambdas, from the same stream.
        x, y = RngState(0).normal((6, 3)), np.eye(2)[np.arange(6) % 2]
        for alpha in (1e-3, 0.1, 0.4, 1.0, 2.0, 10.0, 30.0):
            for seed in range(50):
                lams = sample_lambdas(BetaParams(alpha), 7, RngState(seed))
                assert np.array_equal(lams, RngState(seed).beta(alpha, size=7))
                for mode, n_lam in (("per_batch", 1), ("per_pair", 6)):
                    ref = RngState(seed)
                    ref.integers(0, 1 << vicinal._KEY_BITS, size=6)
                    m = mixup_batch(x, y, BetaParams(alpha), mode, RngState(seed))
                    assert np.array_equal(np.atleast_1d(m.lambda_used), ref.beta(alpha, size=n_lam))

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            BetaParams(0.0)


class TestMixupBatch:
    def test_pairing_has_no_fixed_points(self):
        for n in (2, 3, 17, 64):
            x, y = np.zeros((n, 2)), np.eye(2)[np.arange(n) % 2]
            pairing = mixup_batch(x, y, BetaParams(1.0), rng=RngState(n)).pairing
            assert np.all(pairing != np.arange(n))
            assert sorted(pairing) == list(range(n))

    def test_forced_lambda_one_is_identity(self):
        rng = RngState(5)
        x = rng.normal((6, 3))
        y = np.eye(4)[np.asarray(rng.integers(0, 4, size=6))]
        mixed = mixup_batch(x, y, BetaParams(1.0), rng=RngState(6), lam=1.0)
        assert np.array_equal(mixed.x_mixed, x)
        assert np.array_equal(mixed.y_mixed, y)

    def test_midpoint(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        y = np.eye(3)[[0, 1]]
        mixed = mixup_batch(x, y, BetaParams(1.0), rng=RngState(7), lam=0.5)
        assert np.allclose(mixed.x_mixed, [[1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(mixed.y_mixed, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])

    def test_row_sums_and_support_over_random_batches(self):
        rng = RngState(8)
        for trial in range(1000):
            n = 2 + trial % 14
            x = rng.normal((n, 2))
            y = np.eye(5)[np.asarray(rng.integers(0, 5, size=n))]
            mode = "per_batch" if trial % 2 == 0 else "per_pair"
            mixed = mixup_batch(x, y, BetaParams(0.4), mode, rng)
            sums = mixed.y_mixed.sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-12)
            assert np.all((mixed.y_mixed > 0).sum(axis=1) <= 2)

    def test_per_batch_single_lambda(self):
        rng = RngState(9)
        x = rng.normal((8, 2))
        y = np.eye(2)[np.asarray(rng.integers(0, 2, size=8))]
        mixed = mixup_batch(x, y, BetaParams(0.3), "per_batch", rng)
        assert np.isscalar(mixed.lambda_used) or np.ndim(mixed.lambda_used) == 0
        per_pair = mixup_batch(x, y, BetaParams(0.3), "per_pair", rng)
        assert np.ndim(per_pair.lambda_used) == 1

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            mixup_batch(np.zeros((1, 2)), np.eye(2)[:1], BetaParams(1.0), rng=RngState(0))


class TestCutmixBatch:
    shape = (4, 6, 2)  # H, W, C

    def _batch(self, rng, n=5):
        h, w, c = self.shape
        x = rng.normal((n, h * w * c))
        y = np.eye(3)[np.asarray(rng.integers(0, 3, size=n))]
        return x, y

    def test_lambda_one_identity(self):
        rng = RngState(10)
        x, y = self._batch(rng)
        mixed = cutmix_batch(x, y, BetaParams(1.0), RngState(11), self.shape, lam=1.0)
        assert np.array_equal(mixed.x_mixed, x)
        assert np.array_equal(mixed.y_mixed, y)

    def test_lambda_zero_full_replacement(self):
        rng = RngState(12)
        x, y = self._batch(rng)
        mixed = cutmix_batch(x, y, BetaParams(1.0), RngState(13), self.shape, lam=0.0)
        assert np.array_equal(mixed.x_mixed, x[mixed.pairing])
        assert np.array_equal(mixed.y_mixed, y[mixed.pairing])

    def test_effective_lambda_matches_pixel_count(self):
        h, w, c = self.shape
        rng = RngState(14)
        for trial in range(30):
            x, y = self._batch(rng)
            mixed = cutmix_batch(x, y, BetaParams(0.8), RngState(100 + trial), self.shape)
            own = x.reshape(-1, c, h, w)
            new = mixed.x_mixed.reshape(-1, c, h, w)
            partner = x[mixed.pairing].reshape(-1, c, h, w)
            # count pixels (first channel) still equal to the original image
            changed = (new[0, 0] != own[0, 0]) & (own[0, 0] != partner[0, 0])
            replaced = (new[0, 0] == partner[0, 0]) & (own[0, 0] != partner[0, 0])
            assert not changed[~replaced].any()
            patch_area = int(replaced.sum())
            assert mixed.lambda_used == pytest.approx(1.0 - patch_area / (h * w))

    def test_non_image_input_rejected(self):
        with pytest.raises(ValueError):
            cutmix_batch(np.zeros((3, 10)), np.eye(3), BetaParams(1.0), RngState(0), (4, 6, 2))
        with pytest.raises(ValueError):
            cutmix_batch(np.zeros((3, 48)), np.eye(3), BetaParams(1.0), RngState(0), None)


    def test_each_bad_input_rejected_without_a_drawn_plan(self):
        # only a drawn plan (_pairing with _boxes) skips the checks
        x, y = self._batch(RngState(15))
        bad = {
            "expected a 2-D array": (x[0], y, RngState(0), self.shape, None),
            "batch of at least 2": (x[:1], y[:1], RngState(0), self.shape, None),
            "row counts differ": (x, y[:4], RngState(0), self.shape, None),
            r"lam must lie in \[0, 1\]": (x, y, RngState(0), self.shape, 1.5),
            "RngState": (x, y, None, self.shape, None),
            "image shape metadata": (x, y, RngState(0), None, None),
            "do not match image shape": (x, y, RngState(0), (4, 4, 2), None),
        }
        for match, (xb, yb, rng, shape, lam) in bad.items():
            for hooks in ({}, {"_pairing": np.roll(np.arange(len(y)), 1)}):
                with pytest.raises(ValueError, match=match):
                    cutmix_batch(xb, yb, BetaParams(1.0), rng, shape, lam, **hooks)


class TestLambdaAndRngChecks:
    @pytest.mark.parametrize("lam", [-0.5, 1.5, 2.0, float("nan")])
    def test_lam_outside_unit_interval_rejected(self, lam):
        x, y = np.zeros((4, 12)), np.eye(2)[[0, 1, 0, 1]]
        with pytest.raises(ValueError, match=r"lam must lie in \[0, 1\]"):
            mixup_batch(x, y, BetaParams(1.0), rng=RngState(0), lam=lam)
        with pytest.raises(ValueError, match=r"lam must lie in \[0, 1\]"):
            cutmix_batch(x, y, BetaParams(1.0), RngState(0), (2, 2, 3), lam=lam)
        with pytest.raises(ValueError, match=r"lam must lie in \[0, 1\]"):
            mixup_batch(x, y, BetaParams(1.0), rng=RngState(0), lam=np.array([0.5, 0.5, lam, 0.5]))

    def test_missing_rng_names_rngstate(self):
        x, y = np.zeros((4, 12)), np.eye(2)[[0, 1, 0, 1]]
        with pytest.raises(ValueError, match="RngState"):
            mixup_batch(x, y, BetaParams(1.0))
        with pytest.raises(ValueError, match="RngState"):
            mixup_batch(x, y, BetaParams(1.0), lam=0.5)
        with pytest.raises(ValueError, match="RngState"):
            cutmix_batch(x, y, BetaParams(1.0), None, (2, 2, 3))


def single_batch_oracle(case, x, y, rng, image_shape=(4, 4, 3)):
    """One single-batch call of `case`, drawn from rng in the mix stream's
    order (README) and mixed with plain expressions: one sort key per row
    (each row paired with the next one in key order, cyclically), the Beta
    lambda(s), then the CutMix box's top and left corner.  Returns the mixed
    rows, targets, lambda_used and pairing."""
    op, arg = case.split("-")
    n = len(x)
    order = np.argsort(rng.integers(0, 1 << 40, size=n), kind="stable")
    pairing = np.empty(n, dtype=np.int64)
    pairing[order] = np.roll(order, -1)
    if op == "mixup":
        lam = 0.6 if arg == "lam" else sample_lambdas(BetaParams(0.4), n if arg == "per_pair" else 1, rng)
        lam_row = np.broadcast_to(lam, (n,))[:, None]
        lam_used = lam if arg == "per_pair" else float(lam_row[0, 0])
        return (lam_row * x + (1.0 - lam_row) * x[pairing],
                lam_row * y + (1.0 - lam_row) * y[pairing], lam_used, pairing)
    lam = 0.6 if arg == "lam" else sample_lambdas(BetaParams(float(arg)), 1, rng)[0]
    h, w, c = image_shape
    ph, pw = round(h * math.sqrt(1.0 - lam)), round(w * math.sqrt(1.0 - lam))
    y0, x0 = rng.integers(0, [h - ph + 1])[0], rng.integers(0, [w - pw + 1])[0]
    imgs, partner = x.reshape(n, c, h, w).copy(), x[pairing].reshape(n, c, h, w)
    imgs[:, :, y0:y0 + ph, x0:x0 + pw] = partner[:, :, y0:y0 + ph, x0:x0 + pw]
    lam_eff = 1.0 - ph * pw / (h * w)
    return imgs.reshape(n, -1), lam_eff * y + (1.0 - lam_eff) * y[pairing], lam_eff, pairing


class TestSingleBatchBits:
    # A single-batch call given an RngState draws a plan of one run and one
    # step: the same draws, in the same order, as a training step's.
    CASES = ("mixup-per_batch", "mixup-per_pair", "cutmix-0.3", "cutmix-2.0", "mixup-lam", "cutmix-lam")

    @pytest.mark.parametrize("case", CASES)
    def test_matches_oracle(self, case):
        for seed in range(20):
            data = RngState(seed).split(1)
            x = data.normal((9, 48))
            y = np.eye(3)[np.asarray(data.integers(0, 3, size=9))]
            rng, ref = RngState(seed).split(2), RngState(seed).split(2)
            op, arg = case.split("-")
            if case == "mixup-lam":
                m = mixup_batch(x, y, BetaParams(0.4), rng=rng, lam=0.6)
            elif case == "cutmix-lam":
                m = cutmix_batch(x, y, BetaParams(1.0), rng, (4, 4, 3), lam=0.6)
            elif op == "mixup":
                m = mixup_batch(x, y, BetaParams(0.4), arg, rng)
            else:
                m = cutmix_batch(x, y, BetaParams(float(arg)), rng, (4, 4, 3))
            x_want, y_want, lam_want, pairing_want = single_batch_oracle(case, x, y, ref)
            assert np.array_equal(m.x_mixed, x_want)
            assert np.array_equal(m.y_mixed, y_want)
            assert np.ndim(m.lambda_used) == np.ndim(lam_want)
            assert np.array_equal(m.lambda_used, lam_want)
            assert np.array_equal(m.pairing, pairing_want)
            assert rng.integers(0, 1 << 40) == ref.integers(0, 1 << 40)  # nothing more drawn


class TestTinyAlpha:
    @pytest.mark.parametrize("alpha", [1e-3, 1e-5])
    def test_tiny_alpha_mixes_finite_rows(self, alpha):
        # lambdas at 0 or 1 to rounding: rows mix as copies, never as NaN
        x, y = RngState(0).normal((8, 12)), np.eye(2)[np.arange(8) % 2]
        for seed in range(200):
            for m in (mixup_batch(x, y, BetaParams(alpha), rng=RngState(seed)),
                      cutmix_batch(x, y, BetaParams(alpha), RngState(seed), (2, 2, 3))):
                assert np.isfinite(m.x_mixed).all() and np.isfinite(m.y_mixed).all()
                assert 0.0 <= m.lambda_used <= 1.0


def step_rows(x, y, clean_rows=0):
    """A step's row buffers as the trainer lends them: the mixing runs'
    blocks x and y, a clean-only run's block of ``clean_rows`` after them,
    and as many empty rows as x has for the mixed rows."""
    extra = RngState(99).normal((clean_rows, x.shape[1]))
    return (np.concatenate([x, extra, np.empty_like(x)]),
            np.concatenate([y, np.zeros((len(extra), y.shape[1])), np.empty_like(y)]))


class TestGroupMixer:
    shape = (4, 4, 2)  # H, W, C

    def _plan(self, recipes, sizes, seed=0):
        runs = [
            (ops, BetaParams(alpha), mode, lam, RngState(seed + r).split(2, 0),
             RngState(seed + r).split(3, 0) if len(ops) > 1 else None)
            for r, (ops, alpha, mode, lam) in enumerate(recipes)
        ]
        return vicinal._draw_plan(runs, sizes, self.shape)

    def _check(self, recipes, sizes=(5, 5, 5, 6)):
        """Every step of the group mixer against one single-batch call per
        run, fed that run's part of the same plan; returns the ops used."""
        plan = self._plan(recipes, sizes)
        runs, d = len(recipes), int(np.prod(self.shape))
        used, lo = set(), 0
        for b, rows in enumerate(sizes):
            hi = lo + rows
            data = RngState(100 + b)
            x = data.normal((runs * rows, d))
            y = np.eye(3)[np.asarray(data.integers(0, 3, size=runs * rows))]
            xb, yb = step_rows(x, y, rows * (b % 2))
            vicinal._mix_step(plan, b, lo, hi, xb, yb)
            x_mixed, y_mixed = xb[-len(x):], yb[-len(y):]  # the tail takes the mixed rows
            assert np.array_equal(xb[:len(x)], x)  # the sources are left as they were
            step = slice(runs * lo, runs * hi)
            for r in range(runs):
                block = slice(r * rows, (r + 1) * rows)
                pairing = plan.pairing[step][block] - r * rows
                assert np.all(pairing != np.arange(rows))
                assert sorted(pairing) == list(range(rows))
                if plan.cut[r, b]:
                    want = cutmix_batch(x[block], y[block], None, None, self.shape,
                                        _pairing=pairing, _boxes=plan.boxes[r, b][None])
                else:
                    want = mixup_batch(x[block], y[block], None, lam=plan.lam[step][block],
                                       _pairing=pairing)
                assert np.array_equal(x_mixed[block], want.x_mixed)
                assert np.array_equal(y_mixed[block], want.y_mixed)
                used.add("cutmix" if plan.cut[r, b] else "mixup")
            lo = hi
        return used

    def test_mixup_per_batch(self):
        recipes = [(("mixup",), alpha, "per_batch", None) for alpha in (0.3, 1.0, 8.0)]
        assert self._check(recipes) == {"mixup"}
        plan = self._plan(recipes, (5, 5, 5, 6))
        lam = plan.lam[:15].reshape(3, 5)  # step 0: one lambda per run
        assert np.all(lam == lam[:, :1]) and len(set(lam[:, 0])) == 3

    def test_mixup_per_pair_and_forced(self):
        recipes = [(("mixup",), 0.5, "per_pair", None), (("mixup",), 2.0, "per_batch", None),
                   (("mixup",), 1.0, "per_pair", 0.25)]
        assert self._check(recipes) == {"mixup"}

    def test_cutmix(self):
        recipes = [(("cutmix",), 1.0, "per_batch", None), (("cutmix",), 0.3, "per_pair", None)]
        assert self._check(recipes) == {"cutmix"}

    def test_stretches_mix_in_place(self, monkeypatch):
        # two ops | cutmix | two ops | mixup, every step of an epoch: one call
        # per maximal stretch of runs that share the step's op, in run order,
        # each on a view of the step's rows and writing into their tail
        two = ("mixup", "cutmix")
        recipes = [(two, 1.0, "per_batch", None), (("cutmix",), 0.4, "per_pair", None),
                   (two, 2.0, "per_pair", None), (("mixup",), 0.7, "per_batch", None)]
        rows, sizes = 5, (5,) * 8
        assert self._check(recipes, sizes) == {"mixup", "cutmix"}
        calls = []
        for name in ("mixup_batch", "cutmix_batch"):
            def spy(x, y, *args, _mixer=getattr(vicinal, name), **hooks):
                calls.append((_mixer.__name__, x, hooks["_out"]))
                return _mixer(x, y, *args, **hooks)
            monkeypatch.setattr(vicinal, name, spy)
        plan, d = self._plan(recipes, sizes), int(np.prod(self.shape))
        spans = set()
        for b in range(len(sizes)):
            data = RngState(7 + b)
            x = data.normal((4 * rows, d))
            y = np.eye(3)[np.asarray(data.integers(0, 3, size=4 * rows))]
            xb, yb = step_rows(x, y)
            calls.clear()
            vicinal._mix_step(plan, b, b * rows, (b + 1) * rows, xb, yb)
            stretches = [(op, len(list(same))) for op, same in itertools.groupby(plan.cut[:, b])]
            assert [(name, len(x_in) // rows) for name, x_in, _ in calls] == [
                ("cutmix_batch" if op else "mixup_batch", n) for op, n in stretches
            ]
            first = 0
            for _, x_in, (x_out, y_out) in calls:
                block = slice(first * rows, first * rows + len(x_in))
                assert np.shares_memory(x_in, xb) and np.array_equal(x_in, x[block])
                assert np.shares_memory(x_out, xb[len(x):][block]) and len(x_out) == len(x_in)
                assert np.shares_memory(y_out, yb[len(y):][block]) and len(y_out) == len(x_in)
                first += len(x_in) // rows
            spans.add(tuple(n for _, n in stretches))
        # steps of two and of three stretches, some of them over several runs
        assert {len(s) for s in spans} >= {2, 3} and max(map(max, spans)) > 1

    def test_two_op_coins_with_runs_apart(self):
        # the runs of one op are not always next to each other
        two = ("mixup", "cutmix")
        recipes = [(two, 1.0, "per_batch", None), (("mixup",), 0.4, "per_pair", None),
                   (two, 0.7, "per_pair", None), (("cutmix",), 2.0, "per_batch", None),
                   (two, 3.0, "per_batch", None)]
        assert self._check(recipes, sizes=(4,) * 8 + (5,)) == {"mixup", "cutmix"}
        plan = self._plan(recipes, (4,) * 8 + (5,))
        assert plan.cut[[0, 2, 4]].any() and not plan.cut[[0, 2, 4]].all()


class TestRegmixLoss:
    def _fixture(self, seed=15):
        rng = RngState(seed)
        net = random_net([3, 6, 4], "relu", rng)
        x = rng.normal((8, 3))
        y = np.eye(4)[np.asarray(rng.integers(0, 4, size=8))]
        mixed = mixup_batch(x, y, BetaParams(10.0), rng=rng.split(1))
        return net, x, y, mixed

    def test_eta_zero_degenerates_to_erm(self):
        net, x, y, mixed = self._fixture()
        loss, grads = regmix_loss(net, x, y, mixed, eta=0.0)
        logits, _, cache = forward(net, x)
        want_loss = cross_entropy_soft(softmax(logits), y)
        want = backward(net, cache, y)
        assert loss == want_loss
        for a, b in zip(grads.d_weights, want.d_weights):
            assert np.array_equal(a, b)

    def test_gamma_mixture_identity(self):
        net, x, y, mixed = self._fixture(16)
        for eta in (0.1, 1.0, 2.0):
            loss, _ = regmix_loss(net, x, y, mixed, eta)
            gamma = 1.0 / (1.0 + eta)
            logits_c, _, _ = forward(net, x)
            logits_m, _, _ = forward(net, mixed.x_mixed)
            mixture = gamma * cross_entropy_soft(softmax(logits_c), y) + (
                1.0 - gamma
            ) * cross_entropy_soft(softmax(logits_m), mixed.y_mixed)
            assert loss / (1.0 + eta) == pytest.approx(mixture, abs=1e-12)

    def test_forced_lambda_one_collapses(self):
        rng = RngState(17)
        net = random_net([3, 5, 2], "tanh", rng)
        x = rng.normal((6, 3))
        y = np.eye(2)[np.asarray(rng.integers(0, 2, size=6))]
        mixed = mixup_batch(x, y, BetaParams(1.0), rng=rng.split(1), lam=1.0)
        eta = 0.7
        loss, _ = regmix_loss(net, x, y, mixed, eta)
        logits, _, _ = forward(net, x)
        clean = cross_entropy_soft(softmax(logits), y)
        assert loss == pytest.approx((1.0 + eta) * clean, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        net, x, y, mixed = self._fixture(18)
        eta = 1.3
        _, grads = regmix_loss(net, x, y, mixed, eta)

        def loss_fn():
            return regmix_loss(net, x, y, mixed, eta)[0]

        numeric = finite_diff_grads(loss_fn, net)
        assert_grads_close([*grads.d_weights, *grads.d_biases], numeric)

    @pytest.mark.parametrize("eta", [0.0, 0.7])
    def test_without_mixed_batch_is_clean_ce_bitwise(self, eta):
        net, x, y, _ = self._fixture(20)
        loss, grads = regmix_loss(net, x, y, None, eta)
        logits, _, cache = forward(net, x)
        want = backward(net, cache, y)
        assert loss == cross_entropy_soft(softmax(logits), y)
        for a, b in zip([*grads.d_weights, *grads.d_biases], [*want.d_weights, *want.d_biases]):
            assert np.array_equal(a, b)

    def test_stacked_without_mixed_batch_equals_each_run_alone_bitwise(self):
        rng = RngState(21)
        nets = [random_net([3, 6, 4], "tanh", rng.split(r)) for r in range(3)]
        xs = [rng.split(10 + r).normal((5, 3)) for r in range(3)]
        ys = [np.eye(4)[np.asarray(rng.split(20 + r).integers(0, 4, size=5))] for r in range(3)]
        loss, grads = regmix_loss(Network.stack(nets), np.concatenate(xs), np.concatenate(ys),
                                  None, np.array([0.5, 1.0, 2.0]))
        for r, net in enumerate(nets):
            logits, _, cache = forward(net, xs[r])
            want = backward(net, cache, ys[r])
            assert loss[r] == cross_entropy_soft(softmax(logits), ys[r])
            for a, b in zip([*grads.d_weights, *grads.d_biases], [*want.d_weights, *want.d_biases]):
                assert np.array_equal(a[r], b)

    def test_plain_network_gives_scalar_loss_and_parameter_shaped_grads(self):
        net, x, y, mixed = self._fixture(22)
        for batch in (mixed, None):
            loss, grads = regmix_loss(net, x, y, batch, 0.5)
            assert np.ndim(loss) == 0
            assert [g.shape for g in grads.d_weights] == [w.shape for w in net.weights]
            assert [g.shape for g in grads.d_biases] == [b.shape for b in net.biases]

    def test_mixed_rows_must_match_clean_rows(self):
        net, x, y, mixed = self._fixture(23)
        short = MixedBatch(mixed.x_mixed[:6], mixed.y_mixed[:6])
        with pytest.raises(ShapeError, match="6 mixed rows vs 8 clean rows"):
            regmix_loss(net, x, y, short, 0.5)

    def test_negative_eta_rejected(self):
        net, x, y, mixed = self._fixture(19)
        with pytest.raises(ValueError):
            regmix_loss(net, x, y, mixed, -0.1)

    @pytest.mark.parametrize("term", ["clean", "mixed", "clean alone"])
    def test_negative_target_rejected(self, term):
        net, x, y, mixed = self._fixture(19)
        bad = y.copy()
        bad[0] = [1.5, -0.5, 0.0, 0.0]  # sums to 1, as a mix of one-hot rows does
        if term == "mixed":
            mixed = MixedBatch(mixed.x_mixed, bad)
        else:
            y = bad
        with pytest.raises(ValueError, match="target entries must be >= 0"):
            regmix_loss(net, x, y, None if term == "clean alone" else mixed, 0.5)
