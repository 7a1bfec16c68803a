import numpy as np
import pytest

from vrlkit import evalkit, nn
from vrlkit.datagen import Dataset, apply_normalizer, fit_normalizer, split
from vrlkit.evalkit import (
    BinningSpec,
    Temperature,
    adaece,
    apply_temperature,
    auroc,
    barrier_statistic,
    ece,
    entropy_profile,
    fisher_criterion,
    fit_temperature,
    heatmap_svg,
    reliability_svg,
)
from vrlkit.nn import LayerSpec, Network, forward, softmax
from vrlkit.tensor import RngState
from vrlkit.trainer import TrainConfig, train
from vrlkit.uncertainty import UncertaintyScores, entropy_of

from test_nn import class_order_sum


def scores(values, measure="entropy"):
    return UncertaintyScores(measure, np.asarray(values, dtype=float))


def auroc_brute_force(in_vals, out_vals):
    """Exhaustive pair counting with half-weight ties."""
    wins = 0.0
    for o in out_vals:
        for i in in_vals:
            if o > i:
                wins += 1.0
            elif o == i:
                wins += 0.5
    return wins / (len(in_vals) * len(out_vals))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(scores([0.1, 0.2]), scores([0.5, 0.9])) == 1.0

    def test_all_ties(self):
        assert auroc(scores([0.3, 0.3]), scores([0.3, 0.3, 0.3])) == 0.5

    def test_hand_example(self):
        assert auroc(scores([0.1, 0.4]), scores([0.3, 0.5])) == 0.75

    def test_matches_brute_force_exact(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            n_in = int(rng.integers(1, 200))
            n_out = int(rng.integers(1, 200))
            vals_in = rng.normal(size=n_in)
            vals_out = rng.normal(size=n_out) + 0.3
            if trial % 4 == 1:  # force ties
                vals_in = np.round(vals_in, 1)
                vals_out = np.round(vals_out, 1)
            if trial % 4 == 2:  # few distinct values: long tie runs, with infinities
                high = int(rng.integers(1, 20))
                vals_in = rng.integers(0, high, size=n_in).astype(float)
                vals_out = rng.integers(0, high, size=n_out).astype(float)
                for vals in (vals_in, vals_out):
                    vals[rng.integers(0, vals.size, size=vals.size // 3)] = np.inf
                    vals[rng.integers(0, vals.size, size=vals.size // 6)] = -np.inf
            got = auroc(scores(vals_in), scores(vals_out))
            want = auroc_brute_force(vals_in, vals_out)
            assert got == want

    def test_complement_symmetry_without_ties(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=40)
        b = rng.normal(size=30)
        assert auroc(scores(a), scores(b)) + auroc(scores(b), scores(a)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=25)
        b = rng.normal(size=35)
        base = auroc(scores(a), scores(b))
        f = lambda v: np.exp(2.0 * v) + 1.0
        assert auroc(scores(f(a)), scores(f(b))) == pytest.approx(base, abs=1e-12)

    def test_measure_mismatch(self):
        with pytest.raises(ValueError):
            auroc(scores([1.0]), scores([1.0], measure="ds"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auroc(scores([]), scores([1.0]))

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            auroc(scores([0.1, np.nan]), scores([0.5]))
        with pytest.raises(ValueError, match="NaN"):
            auroc(scores([0.5]), scores([0.1, np.nan]))


def ece_oracle_equal_width(probs, labels, n_bins):
    """Explicit per-sample enumeration of the equal-width ECE."""
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    total = len(conf)
    err = 0.0
    for b in range(n_bins):
        members = [
            i
            for i in range(total)
            if (min(int(conf[i] * n_bins), n_bins - 1)) == b
        ]
        if not members:
            continue
        acc = sum(correct[i] for i in members) / len(members)
        avg_conf = sum(conf[i] for i in members) / len(members)
        err += (len(members) / total) * abs(acc - avg_conf)
    return err


def adaece_oracle(probs, labels, n_bins):
    """Explicit equal-mass enumeration, ties staying in the left bin."""
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(float)
    order = np.argsort(conf, kind="mergesort")
    conf_s, correct_s = conf[order], correct[order]
    n = len(conf_s)
    bounds = [int(round(i * n / n_bins)) for i in range(n_bins + 1)]
    for i in range(1, n_bins):
        b = bounds[i]
        while 0 < b < n and conf_s[b - 1] == conf_s[b]:
            b += 1
        bounds[i] = max(b, bounds[i - 1])
    bounds[n_bins] = n
    err = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi <= lo:
            continue
        seg_conf = conf_s[lo:hi]
        seg_corr = correct_s[lo:hi]
        err += (hi - lo) / n * abs(seg_corr.mean() - seg_conf.mean())
    return err


def random_prob_fixture(rng, n=20, k=4):
    probs = softmax(rng.normal(size=(n, k)) * 2)
    labels = rng.integers(0, k, size=n)
    return probs, labels


class TestCalibrationErrors:
    def test_perfectly_calibrated_is_zero(self):
        # every bin's confidence equals its empirical accuracy
        probs = np.array([[0.75, 0.25]] * 4)
        labels = np.array([0, 0, 0, 1])  # accuracy 0.75 at confidence 0.75
        assert ece(probs, labels, BinningSpec("equal_width", 10)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert adaece(probs, labels, BinningSpec("equal_mass", 1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_saturated_half_wrong(self):
        probs = np.array([[1.0, 0.0]] * 10)
        labels = np.array([0] * 5 + [1] * 5)
        assert ece(probs, labels) == pytest.approx(0.5, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            probs, labels = random_prob_fixture(rng)
            spec_w = BinningSpec("equal_width", 15)
            spec_m = BinningSpec("equal_mass", 5)
            assert ece(probs, labels, spec_w) == pytest.approx(
                ece_oracle_equal_width(probs, labels, 15), abs=1e-12
            )
            assert adaece(probs, labels, spec_m) == pytest.approx(
                adaece_oracle(probs, labels, 5), abs=1e-12
            )

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            probs, labels = random_prob_fixture(rng, n=30)
            assert 0.0 <= ece(probs, labels) <= 1.0
            assert 0.0 <= adaece(probs, labels, BinningSpec("equal_mass", 10)) <= 1.0

    def test_mode_mismatch_rejected(self):
        probs = np.array([[0.6, 0.4]])
        with pytest.raises(ValueError):
            ece(probs, [0], BinningSpec("equal_mass", 5))
        with pytest.raises(ValueError):
            adaece(probs, [0], BinningSpec("equal_width", 5))

    def test_equal_mass_needs_enough_samples(self):
        probs = np.array([[0.6, 0.4]] * 3)
        with pytest.raises(ValueError):
            adaece(probs, [0, 0, 1], BinningSpec("equal_mass", 5))

    @pytest.mark.parametrize("n_bins", [1, 3, 5, 10])
    def test_equal_mass_block_bins_each_row_as_alone(self, n_bins):
        # quarter-step confidences tie within each row; row 0 is one run of ties
        rng = np.random.default_rng(9)
        conf = rng.integers(0, 4, size=(6, 10)) / 4
        conf[0] = 0.5
        correct = rng.random(10) < 0.5
        spec = BinningSpec("equal_mass", n_bins)
        cells, block_conf, block_correct = evalkit._bin_cells(conf, correct, spec)
        for r, row in enumerate(conf):
            (row_cells,), (row_conf,), (row_correct,) = evalkit._bin_cells(row, correct, spec)
            assert np.array_equal(cells[r] - r * n_bins, row_cells)
            assert np.array_equal(block_conf[r], row_conf)
            assert np.array_equal(block_correct[r], row_correct)
            # a sample's bin is the number of cut confidences below its own
            cut = row_conf[[round(i * 10 / n_bins) - 1 for i in range(1, n_bins)]]
            assert np.array_equal(row_cells, (cut < row_conf[:, None]).sum(axis=1))


def fit_temperature_oracle(logits, labels, spec):
    """The smallest grid T minimizing ECE, computed as per-bin mean gaps.

    ECE(T) = sum_b (n_b / n) * |mean(correct_b) - mean(conf_b)|, accumulated
    bin by bin over an explicit member mask, for every grid T at once; the
    first minimum wins, so ties go to the smaller T.  Equal-mass cuts move
    right one position at a time while they split a run of tied confidences.
    """
    from vrlkit.evalkit import TEMPERATURE_GRID

    n, n_bins = len(labels), spec.n_bins
    correct = (logits.argmax(axis=1) == labels).astype(np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    conf = 1.0 / np.exp(shifted[None] / TEMPERATURE_GRID[:, None, None]).sum(axis=2)
    rows = np.arange(TEMPERATURE_GRID.size)
    if spec.mode == "equal_width":
        idx = np.minimum((conf * n_bins).astype(int), n_bins - 1)
        correct = np.broadcast_to(correct, conf.shape)
        members = [idx == b for b in range(n_bins)]
    else:
        order = np.argsort(conf, axis=1, kind="mergesort")
        conf = np.take_along_axis(conf, order, axis=1)
        correct = correct[order]
        bounds = [np.zeros(rows.size, dtype=int)]
        for i in range(1, n_bins):
            b = np.full(rows.size, int(round(i * n / n_bins)))
            while True:
                inner = (b > 0) & (b < n)
                tied = np.zeros(rows.size, dtype=bool)
                tied[inner] = conf[rows[inner], b[inner] - 1] == conf[rows[inner], b[inner]]
                if not tied.any():
                    break
                b[tied] += 1
            bounds.append(np.maximum(b, bounds[-1]))
        bounds.append(np.full(rows.size, n))
        pos = np.arange(n)
        members = [
            (pos >= lo[:, None]) & (pos < hi[:, None])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    err = np.zeros(rows.size)
    conf_t, correct_t = conf.T.copy(), correct.T.copy()  # sum over samples: axis 0
    for mask in members:
        mask = mask.T
        n_b = mask.sum(axis=0)
        denom = np.maximum(n_b, 1)
        gap = np.abs(
            np.where(mask, correct_t, 0.0).sum(axis=0) / denom
            - np.where(mask, conf_t, 0.0).sum(axis=0) / denom
        )
        err += np.where(n_b > 0, (n_b / n) * gap, 0.0)
    return float(TEMPERATURE_GRID[np.argmin(err)])


def temperature_fixture(rng, trial, k=None, rows=(5, 25)):
    """Random validation logits; every third fixture is tie-heavy.

    Without `k`, the class count is drawn from 2..4; the row count is drawn
    from the half-open range `rows`.
    """
    n = int(rng.integers(*rows))
    if k is None:
        k = int(rng.integers(2, 5))
    logits = rng.normal(size=(n, k)) * rng.uniform(0.3, 6.0)
    if trial % 3 == 0:
        logits = np.round(logits)  # integer logits: many identical rows
        logits[: n // 4] = logits[n // 4 : 2 * (n // 4)]  # duplicated rows
        if n > 8:
            logits[-3:, 0] += 800.0  # saturated rows: confidence exactly 1
    labels = rng.integers(0, k, size=n)
    labels[: n // 2] = logits[: n // 2].argmax(axis=1)  # some signal
    return logits, labels


class TestTemperatureOracle:
    """The binned grid search picks exactly the T of the per-bin loop."""

    def test_equal_width_matches_oracle(self):
        rng = np.random.default_rng(13)
        spec = BinningSpec("equal_width", 15)
        for trial in range(200):
            logits, labels = temperature_fixture(rng, trial)
            assert fit_temperature(logits, labels, spec).T == fit_temperature_oracle(
                logits, labels, spec
            )

    def test_equal_mass_matches_oracle(self):
        rng = np.random.default_rng(14)
        for trial in range(50):
            logits, labels = temperature_fixture(rng, trial)
            spec = BinningSpec("equal_mass", int(rng.integers(1, 6)))
            assert fit_temperature(logits, labels, spec).T == fit_temperature_oracle(
                logits, labels, spec
            )

    @pytest.mark.parametrize("k", [8, 9, 10, 17])
    def test_many_classes_match_oracle(self, k):
        # k >= 8: the class sum runs through its eight accumulators
        rng = np.random.default_rng(100 + k)
        for trial in range(6):
            logits, labels = temperature_fixture(rng, trial, k)
            for spec in (
                BinningSpec("equal_width", 15),
                BinningSpec("equal_mass", int(rng.integers(1, 6))),
            ):
                assert fit_temperature(logits, labels, spec).T == fit_temperature_oracle(
                    logits, labels, spec
                )

    def test_plateau_goes_to_smallest_t(self):
        # a 1000 logit gap, all correct: confidence is exactly 1 and ECE exactly
        # 0 across the low-T grid, so the tie goes to the grid's first T
        logits = np.array([[1000.0, 0.0, 0.0]] * 6 + [[0.0, 1000.0, 0.0]] * 6)
        labels = np.array([0] * 6 + [1] * 6)
        for spec in (BinningSpec("equal_width", 15), BinningSpec("equal_mass", 4)):
            assert fit_temperature(logits, labels, spec).T == 0.1
            assert fit_temperature_oracle(logits, labels, spec) == 0.1


CLASS_COUNTS = [2, 3, 7, 8, 9, 10, 16, 17, 100, 130]


class TestClassMajorConfidence:
    """fit_temperature's class-major sums equal the class-last sums in class
    order bit for bit, and so numpy's own sums for k < 8."""

    @pytest.mark.parametrize("k", CLASS_COUNTS)
    def test_class_sum_bitwise_equal_to_numpy_sum(self, k):
        rng = np.random.default_rng(k)
        x = np.exp(rng.normal(size=(6, 11, k)) * 6.0)  # magnitudes 1e-16..1e16
        total = nn._class_sum(np.ascontiguousarray(np.moveaxis(x, -1, 0)))
        assert total.tobytes() == class_order_sum(x).tobytes()
        assert k >= 8 or total.tobytes() == x.sum(axis=-1).tobytes()

    @pytest.mark.parametrize("k", CLASS_COUNTS)
    def test_confidences_bitwise_equal_to_class_last_expression(self, k, monkeypatch):
        # every confidence the search computes, at the chunk ends and in the
        # chunks it bins, at exactly the temperatures it was computed for
        rng = np.random.default_rng(200 + k)
        n = int(rng.integers(5, 40))
        logits = rng.normal(size=(n, k)) * rng.uniform(0.3, 6.0)
        labels = rng.integers(0, k, size=n)
        computed, binned = [], []
        max_confidence, binned_ece = evalkit._max_confidence, evalkit._binned_ece

        def confidence_spy(shifted, ts, buf):
            conf = max_confidence(shifted, ts, buf)
            computed.append((ts.copy(), conf.copy()))
            return conf

        def binning_spy(conf, correct, spec):
            binned.append((computed[-1][0], conf.copy()))
            return binned_ece(conf, correct, spec)

        monkeypatch.setattr(evalkit, "_max_confidence", confidence_spy)
        monkeypatch.setattr(evalkit, "_binned_ece", binning_spy)
        fit_temperature(logits, labels)
        assert binned and len(computed) > len(binned)
        shifted = logits - logits.max(axis=1, keepdims=True)
        for ts, conf in computed + binned:
            e = np.exp(shifted[None] / ts[:, None, None])
            assert conf.tobytes() == (1.0 / class_order_sum(e)).tobytes()
            assert k >= 8 or conf.tobytes() == (1.0 / e.sum(axis=2)).tobytes()


def fit_temperature_exhaustive(logits_val, labels_val, spec=BinningSpec()):
    """The exhaustive chunked scan: every chunk of the grid binned, in grid order.

    This is `fit_temperature` as it was before it skipped chunks, kept
    verbatim; the pruned search must return its T bit for bit.
    """
    import math

    from vrlkit.evalkit import (
        _TEMPERATURE_CHUNK_FLOATS,
        TEMPERATURE_GRID,
        _binned_ece,
        _checked,
    )
    from vrlkit.nn import _class_sum

    s, labels = _checked(logits_val, labels_val, spec, "logits")
    correct = s.argmax(axis=1) == labels
    n, k = s.shape
    shifted = np.ascontiguousarray((s - s.max(axis=1, keepdims=True)).T)[:, None, :]
    chunk = min(max(1, _TEMPERATURE_CHUNK_FLOATS // (n * k)), TEMPERATURE_GRID.size)
    buf = np.empty((k, chunk, n))
    best_t, best_ece = None, math.inf
    for start in range(0, TEMPERATURE_GRID.size, chunk):
        ts = TEMPERATURE_GRID[start : start + chunk]
        planes = buf[:, : ts.size]
        np.divide(shifted, ts[:, None], out=planes)
        np.exp(planes, out=planes)
        conf = _class_sum(planes)
        np.divide(1.0, conf, out=conf)
        errs = _binned_ece(conf, correct, spec)
        i = int(np.argmin(errs))  # the first minimum: the smallest T
        if errs[i] < best_ece:
            best_ece, best_t = errs[i], float(ts[i])
    return Temperature(best_t)


class TestPrunedSearch:
    """The search skips chunks that cannot beat the best ECE, yet returns the
    exhaustive scan's T: on 300-1,200 rows a chunk holds a few to a few
    hundred temperatures, so most chunks are skipped."""

    @staticmethod
    def _specs(rng):
        return (
            BinningSpec("equal_width", 15),
            BinningSpec("equal_mass", int(rng.integers(1, 16))),
        )

    def _assert_exhaustive_t(self, logits, labels, spec, expected=None):
        t = fit_temperature(logits, labels, spec).T
        assert t == fit_temperature_exhaustive(logits, labels, spec).T
        if expected is not None:
            assert t == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 10])
    def test_many_chunks_match_exhaustive(self, k):
        # trial 0 is tie-heavy: integer logits, duplicated and saturated rows
        rng = np.random.default_rng(300 + k)
        for trial in range(2):
            logits, labels = temperature_fixture(rng, trial, k, rows=(300, 1201))
            for spec in self._specs(rng):
                self._assert_exhaustive_t(logits, labels, spec)

    @pytest.mark.parametrize("k", [2, 10])
    def test_all_correct_minimum_at_first_t(self, k):
        # ECE = mean(1 - conf), least where confidence is highest: T = 0.1
        rng = np.random.default_rng(320 + k)
        logits = rng.normal(size=(500, k)) * 3.0
        for spec in self._specs(rng):
            self._assert_exhaustive_t(logits, logits.argmax(axis=1), spec, 0.1)

    @pytest.mark.parametrize("k", [2, 10])
    def test_all_wrong_minimum_at_last_t(self, k):
        # ECE = mean(conf), least at T = 10, in the grid's last chunk
        rng = np.random.default_rng(330 + k)
        logits = rng.normal(size=(500, k)) * 3.0
        labels = (logits.argmax(axis=1) + 1) % k
        for spec in self._specs(rng):
            self._assert_exhaustive_t(logits, labels, spec, 10.0)

    def test_constant_logits_tie_at_every_t(self):
        # confidence 1/k at every T: every T ties, so the first one wins
        rng = np.random.default_rng(340)
        logits = np.repeat(rng.normal(size=(400, 1)), 3, axis=1)
        labels = rng.integers(0, 3, size=400)
        for spec in self._specs(rng):
            self._assert_exhaustive_t(logits, labels, spec, 0.1)

    def test_tie_at_a_bound_equal_to_the_best_ece(self):
        # 256 rows of equal logits (confidence exactly 1/2, 64 right) and 256
        # right rows of gap 40 (confidence exactly 1 up to T ~ 1.09, lower
        # after): ECE is exactly 1/8 up to T ~ 1.09 and higher after.  The
        # chunk across T ~ 1.09 has the smaller bound and is binned first,
        # finding ECE 1/8 at its first T; every chunk before it has a bound of
        # exactly 1/8, so only binning those too finds the tie at T = 0.1.
        logits = np.zeros((512, 2))
        logits[256:, 0] = 40.0
        labels = np.ones(512, dtype=int)
        labels[192:] = 0
        for spec in (BinningSpec("equal_width", 15), BinningSpec("equal_mass", 2)):
            self._assert_exhaustive_t(logits, labels, spec, 0.1)

    def test_bins_under_a_tenth_of_the_grid(self, monkeypatch):
        # 800 rows of 10 classes whose logits are twice as sharp as the
        # distribution their labels are drawn from: an overconfident net
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(800, 10)) * 3.0
        cumulative = softmax(logits / 2.0).cumsum(axis=1)
        labels = (cumulative > rng.random((800, 1))).argmax(axis=1)
        binned = []
        binned_ece = evalkit._binned_ece

        def spy(conf, correct, spec):
            binned.append(conf.shape[0])
            return binned_ece(conf, correct, spec)

        monkeypatch.setattr(evalkit, "_binned_ece", spy)
        for spec in (BinningSpec("equal_width", 15), BinningSpec("equal_mass", 15)):
            binned.clear()
            fit_temperature(logits, labels, spec)
            assert 0 < sum(binned) < 0.1 * evalkit.TEMPERATURE_GRID.size

    def test_end_pass_takes_chunk_starts_and_the_last_t(self, monkeypatch):
        # 1,000 rows of 10 classes: 6 temperatures a chunk, 1,651 chunks; the
        # bounds need mc at each chunk start and at the last grid T only
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(1000, 10)) * 3.0
        labels = rng.integers(0, 10, size=1000)
        chunk = evalkit._TEMPERATURE_CHUNK_FLOATS // logits.size
        chunks = -(-evalkit.TEMPERATURE_GRID.size // chunk)
        computed, binned_at = [], []
        max_confidence, binned_ece = evalkit._max_confidence, evalkit._binned_ece

        def confidence_spy(shifted, ts, buf):
            computed.append(ts.copy())
            return max_confidence(shifted, ts, buf)

        def binning_spy(conf, correct, spec):
            binned_at.append(len(computed))
            return binned_ece(conf, correct, spec)

        monkeypatch.setattr(evalkit, "_max_confidence", confidence_spy)
        monkeypatch.setattr(evalkit, "_binned_ece", binning_spy)
        fit_temperature(logits, labels)
        # every call before the first binned chunk's is the end pass
        ts = np.concatenate(computed[: binned_at[0] - 1])
        assert ts.size == chunks + 1
        grid = evalkit.TEMPERATURE_GRID
        assert ts.tobytes() == np.append(grid[::chunk], grid[-1]).tobytes()


class TestCalibrationInputsRejected:
    def test_non_finite_logits(self):
        logits = np.array([[1.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            fit_temperature(logits, [0, 1])
        with pytest.raises(ValueError, match="finite"):
            fit_temperature(np.array([[1.0, 0.0], [np.inf, 0.0]]), [0, 1])

    def test_non_finite_probabilities(self):
        probs = np.array([[0.6, 0.4], [np.nan, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            ece(probs, [0, 1])
        with pytest.raises(ValueError, match="finite"):
            adaece(probs, [0, 1], BinningSpec("equal_mass", 2))

    def test_zero_rows(self):
        with pytest.raises(ValueError, match="no rows"):
            fit_temperature(np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="no rows"):
            ece(np.empty((0, 3)), np.empty(0, dtype=int))

    def test_label_count_mismatch(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="labels"):
            fit_temperature(logits, [0, 1])
        with pytest.raises(ValueError, match="labels"):
            ece(softmax(logits), [0, 1, 0, 1])

    def test_equal_mass_bins_exceed_rows(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="n_bins"):
            fit_temperature(logits, [0, 1, 0], BinningSpec("equal_mass", 4))


class TestTemperature:
    def _logit_fixture(self, seed=5, n=300, k=4, sharpen=2.5):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, k))
        labels = np.array([
            rng.choice(k, p=softmax(row[None] / 1.5)[0]) for row in logits
        ])
        return logits * sharpen, labels  # overconfident fixture

    def test_fitted_never_worse_than_unit(self):
        logits, labels = self._logit_fixture()
        spec = BinningSpec("equal_width", 15)
        temp = fit_temperature(logits, labels, spec)
        before = ece(softmax(logits), labels, spec)
        after = ece(apply_temperature(logits, temp), labels, spec)
        assert after <= before + 1e-15

    def test_scaling_covariance(self):
        logits, labels = self._logit_fixture(seed=6)
        t1 = fit_temperature(logits, labels).T
        t2 = fit_temperature(2.0 * logits, labels).T
        assert abs(t2 - 2.0 * t1) <= 2.0 * t1 * 0.02 + 0.002

    def test_argmax_invariance(self):
        logits, labels = self._logit_fixture(seed=7)
        temp = fit_temperature(logits, labels)
        before = softmax(logits).argmax(axis=1)
        after = apply_temperature(logits, temp).argmax(axis=1)
        assert np.array_equal(before, after)

    def test_equal_mass_spec_also_supported(self):
        logits, labels = self._logit_fixture(seed=8, n=120)
        spec = BinningSpec("equal_mass", 10)
        temp = fit_temperature(logits, labels, spec)
        before = adaece(softmax(logits), labels, spec)
        after = adaece(apply_temperature(logits, temp), labels, spec)
        assert after <= before + 1e-15

    def test_grid_resolution(self):
        from vrlkit.evalkit import TEMPERATURE_GRID

        assert TEMPERATURE_GRID[0] == pytest.approx(0.1)
        assert TEMPERATURE_GRID[-1] == pytest.approx(10.0)
        assert np.allclose(np.diff(TEMPERATURE_GRID), 0.001)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Temperature(0.05)


class TestFisher:
    def test_coincident_means_give_zero(self):
        rng = np.random.default_rng(8)
        cloud = rng.normal(size=(40, 2))
        features = np.vstack([cloud, cloud])  # identical class clouds
        labels = np.array([0] * 40 + [1] * 40)
        assert fisher_criterion(features, labels) == pytest.approx(0.0, abs=1e-9)

    def test_invariant_under_invertible_maps(self):
        rng = np.random.default_rng(9)
        features = np.vstack(
            [rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + [4.0, 1.0]]
        )
        labels = np.array([0] * 30 + [1] * 30)
        base = fisher_criterion(features, labels, epsilon=0.0)
        for _ in range(20):
            m = rng.normal(size=(2, 2))
            while abs(np.linalg.det(m)) < 0.1:
                m = rng.normal(size=(2, 2))
            mapped = fisher_criterion(features @ m.T, labels, epsilon=0.0)
            assert abs(mapped - base) <= 1e-6 * abs(base)

    def test_matches_direct_2x2_oracle(self):
        rng = np.random.default_rng(10)
        f0 = rng.normal(size=(25, 2)) * [1.0, 0.5]
        f1 = rng.normal(size=(35, 2)) * [0.7, 1.2] + [3.0, -1.0]
        features = np.vstack([f0, f1])
        labels = np.array([0] * 25 + [1] * 35)
        got = fisher_criterion(features, labels, epsilon=0.0)
        # direct matrix arithmetic
        mu = features.mean(axis=0)
        s_w = np.zeros((2, 2))
        s_b = np.zeros((2, 2))
        for c, grp in ((0, f0), (1, f1)):
            mu_c = grp.mean(axis=0)
            diffs = grp - mu_c
            s_w += diffs.T @ diffs
            s_b += len(grp) * np.outer(mu_c - mu, mu_c - mu)
        want = np.trace(np.linalg.inv(s_w) @ s_b)
        assert got == pytest.approx(want, rel=1e-9)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            fisher_criterion(np.zeros((4, 2)), np.zeros(4, dtype=int))


def trained_moons_net(seed=0):
    from vrlkit.datagen import make_two_moons

    base = make_two_moons(300, 0.15, RngState(30).split(1))
    tr_raw, _ = split(base, 0.8, stratified=True, rng=RngState(31).split(2))
    stats = fit_normalizer(tr_raw)
    tr = apply_normalizer(tr_raw, stats)
    cfg = TrainConfig(
        strategy="erm", hidden_dims=(16,), epochs=20, batch_size=32,
        learning_rate=0.1, seed=seed,
    )
    net, _ = train(cfg, tr, None)
    return net, tr


def input_space_profile(net, ds, n_pairs, rng, lambda_points=20):
    """The input-space loop `entropy_profile` replaced: one forward pass per
    lambda over the interpolated inputs.  Returns (i_idx, j_idx, entropies)."""
    i_idx = np.asarray(rng.integers(0, ds.n, size=n_pairs))
    j_idx = np.asarray(rng.integers(0, ds.n, size=n_pairs))
    while True:
        same = ds.labels[i_idx] == ds.labels[j_idx]
        if not same.any():
            break
        j_idx[same] = rng.integers(0, ds.n, size=int(same.sum()))
    xi, xj = ds.x[i_idx], ds.x[j_idx]
    entropies = np.empty((n_pairs, lambda_points))
    for li, lam in enumerate(np.linspace(0.0, 1.0, lambda_points)):
        logits, _, _ = forward(net, lam * xi + (1.0 - lam) * xj)
        entropies[:, li] = entropy_of(softmax(logits))
    return i_idx, j_idx, entropies


# (input dim, hidden dims, hidden activation, classes); () is a single-layer net
PROFILE_NETS = {
    "relu": (2, (16, 16), "relu", 3),
    "tanh": (2, (32,), "tanh", 4),
    "identity": (5, (8,), "identity", 3),
    "single-layer": (2, (), "identity", 3),
    "image-3072": (3072, (64,), "relu", 10),
}


def random_profile_case(name, n=120):
    d, hidden, act, k = PROFILE_NETS[name]
    dims = (d, *hidden, k)
    specs = [
        LayerSpec(a, b, act if i < len(hidden) else "identity")
        for i, (a, b) in enumerate(zip(dims, dims[1:]))
    ]
    net = Network(specs, rng=RngState(7).split(len(dims)))
    gen = np.random.default_rng(d + len(hidden))
    ds = Dataset(3.0 * gen.normal(size=(n, d)), gen.integers(0, k, size=n), k, name)
    return net, ds


class TestEntropyProfile:
    @pytest.mark.parametrize("name", sorted(PROFILE_NETS))
    def test_matches_input_space_oracle(self, name):
        net, ds = random_profile_case(name)
        rng_new, rng_old = RngState(8).split(0), RngState(8).split(0)
        profile = entropy_profile(net, ds, n_pairs=150, rng=rng_new)
        i_idx, j_idx, want = input_space_profile(net, ds, 150, rng_old)
        assert profile.entropies.shape == want.shape
        assert np.max(np.abs(profile.entropies - want)) <= 1e-12
        # the same draws, and no more: both streams continue identically
        assert rng_new.integers(0, 2**31, size=4).tolist() == rng_old.integers(
            0, 2**31, size=4
        ).tolist()
        # lambda = 0 is x_j and lambda = 1 is x_i, bit for bit
        for col, idx in ((0, j_idx), (-1, i_idx)):
            logits, _, _ = forward(net, ds.x[idx])
            assert profile.entropies[:, col].tobytes() == entropy_of(softmax(logits)).tobytes()
        assert profile.histogram.sum() == 150 * profile.lambda_grid.size
        assert (profile.histogram.sum(axis=1) == 150).all()

    @pytest.mark.parametrize("name", ["relu", "image-3072"])
    def test_one_forward_of_the_distinct_endpoint_rows(self, monkeypatch, name):
        net, ds = random_profile_case(name)
        i_idx, j_idx, _ = input_space_profile(net, ds, 150, RngState(8).split(0))
        rows = np.unique(np.concatenate([i_idx, j_idx]))
        assert rows.size < 2 * 150  # the draws repeat rows, so the check has teeth
        seen = []

        def spy(net_, x, *args, **kwargs):
            seen.append(np.array(x))
            return forward(net_, x, *args, **kwargs)

        monkeypatch.setattr(nn, "forward", spy)
        entropy_profile(net, ds, n_pairs=150, rng=RngState(8).split(0))
        assert len(seen) == 1
        assert seen[0].tobytes() == ds.x[rows].tobytes()

    def test_rng_required(self):
        net, ds = random_profile_case("relu")
        with pytest.raises(ValueError, match="RngState"):
            entropy_profile(net, ds)

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_nonpositive_pairs_rejected(self, n_pairs):
        net, ds = random_profile_case("relu")
        with pytest.raises(ValueError, match="n_pairs"):
            entropy_profile(net, ds, n_pairs=n_pairs, rng=RngState(9).split(0))

    def test_defaults_and_counts(self):
        import inspect

        from vrlkit.evalkit import entropy_profile as ep

        assert inspect.signature(ep).parameters["n_pairs"].default == 1000
        net, tr = trained_moons_net()
        profile = entropy_profile(net, tr, n_pairs=50, rng=RngState(1).split(0))
        assert profile.lambda_grid.size == 20
        assert profile.entropies.shape == (50, 20)
        assert profile.histogram.sum() == 50 * 20

    def test_endpoints_match_pure_samples(self):
        net, tr = trained_moons_net()
        profile = entropy_profile(net, tr, n_pairs=20, rng=RngState(2).split(0))
        i_idx, j_idx, _ = input_space_profile(net, tr, 20, RngState(2).split(0))
        assert profile.lambda_grid[0] == 0.0 and profile.lambda_grid[-1] == 1.0
        # the endpoint columns are the pure samples' entropies, bit for bit
        for col, idx in ((0, j_idx), (-1, i_idx)):
            logits, _, _ = forward(net, tr.x[idx])
            assert profile.entropies[:, col].tobytes() == entropy_of(softmax(logits)).tobytes()

    def test_single_class_rejected(self):
        net, tr = trained_moons_net()
        only_zero = tr.take(np.flatnonzero(tr.labels == 0))
        with pytest.raises(ValueError):
            entropy_profile(net, only_zero, n_pairs=5, rng=RngState(3).split(0))


class TestBarrierStatistic:
    def _flat_profile(self, value=0.4):
        from vrlkit.evalkit import EntropyProfile

        grid = np.linspace(0, 1, 20)
        entropies = np.full((10, 20), value)
        hist = np.zeros((20, 30), dtype=np.int64)
        return EntropyProfile(grid, entropies, hist, np.linspace(0, 1, 31))

    def test_flat_profile_is_one(self):
        assert barrier_statistic(self._flat_profile()) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative(self):
        net, tr = trained_moons_net()
        profile = entropy_profile(net, tr, n_pairs=30, rng=RngState(4).split(0))
        assert barrier_statistic(profile) >= 0.0

    def test_zero_denominator_floored(self):
        prof = self._flat_profile(0.0)
        prof.entropies[:, 8:12] = 1.0
        assert barrier_statistic(prof) > 0  # finite thanks to the floor

    def test_empty_profile_rejected(self):
        from vrlkit.evalkit import EntropyProfile

        prof = EntropyProfile(
            np.linspace(0, 1, 20), np.empty((0, 20)),
            np.zeros((20, 30), dtype=np.int64), np.linspace(0, 1, 31),
        )
        with pytest.raises(ValueError):
            barrier_statistic(prof)


class TestSvgEmission:
    def test_heatmap_svg_deterministic(self, tmp_path):
        net, tr = trained_moons_net()
        profile = entropy_profile(net, tr, n_pairs=25, rng=RngState(5).split(0))
        a = heatmap_svg(profile, tmp_path / "h.svg")
        b = heatmap_svg(profile)
        assert a == b
        assert (tmp_path / "h.svg").read_text() == a
        assert a.startswith("<svg") and a.rstrip().endswith("</svg>")

    def test_reliability_svg(self, tmp_path):
        rng = np.random.default_rng(11)
        probs = softmax(rng.normal(size=(50, 3)))
        labels = rng.integers(0, 3, size=50)
        svg = reliability_svg(probs, labels, BinningSpec("equal_width", 10),
                              tmp_path / "r.svg")
        assert "<svg" in svg and (tmp_path / "r.svg").exists()

    def test_reliability_svg_rejects_equal_mass(self, tmp_path):
        rng = np.random.default_rng(12)
        probs = softmax(rng.normal(size=(50, 3)))
        labels = rng.integers(0, 3, size=50)
        with pytest.raises(ValueError):
            reliability_svg(probs, labels, BinningSpec("equal_mass", 10), tmp_path / "r.svg")
        assert not (tmp_path / "r.svg").exists()


def histogram_loop(entropies, h_edges):
    """The per-lambda binning loop that the one-pass histogram replaced."""
    h_bins = h_edges.size - 1
    hist = np.empty((entropies.shape[1], h_bins), dtype=np.int64)
    for li in range(entropies.shape[1]):
        cell = np.minimum(
            np.searchsorted(h_edges, entropies[:, li], side="right") - 1, h_bins - 1
        )
        hist[li] = np.bincount(np.maximum(cell, 0), minlength=h_bins)
    return hist


class TestEntropyHistogram:
    @pytest.mark.parametrize("name", sorted(PROFILE_NETS))
    def test_equals_per_lambda_loop(self, name):
        net, ds = random_profile_case(name)
        profile = entropy_profile(net, ds, n_pairs=300, rng=RngState(12).split(0), h_bins=17)
        assert profile.histogram.dtype == np.int64
        want = histogram_loop(profile.entropies, profile.h_edges)
        assert np.array_equal(profile.histogram, want)

    def test_bin_edges_zero_and_max_entropy(self, monkeypatch):
        # entropies exactly on every bin edge, at 0 and at ln k, plus a
        # slightly negative value, fed through the real entropy_profile
        import math

        from vrlkit import evalkit

        k, h_bins, points = 3, 6, 5
        edges = np.linspace(0.0, math.log(k), h_bins + 1)
        values = np.concatenate([edges, [-1e-18, math.log(k), 0.0, edges[3]]])
        n_pairs = values.size
        net, ds = random_profile_case("relu")
        assert ds.k == k
        table = np.stack([np.roll(values, li) for li in range(points)], axis=1)
        calls = iter(range(points))
        monkeypatch.setattr(evalkit, "entropy_of", lambda probs: table[:, next(calls)])
        profile = entropy_profile(
            net, ds, n_pairs=n_pairs, rng=RngState(3).split(0),
            lambda_points=points, h_bins=h_bins,
        )
        assert np.array_equal(profile.entropies, table)
        want = histogram_loop(table, profile.h_edges)
        assert np.array_equal(profile.histogram, want)
        assert want[:, 0].min() >= 3 and want[:, -1].min() >= 3  # both ends clipped in
        assert (profile.histogram.sum(axis=1) == n_pairs).all()


# sha256 of the SVG documents as rendered before heatmap_svg and
# reliability_svg shared one envelope helper.
SVG_DIGESTS = {
    "heatmap": "4f505fab8e6bfb99d15529cd12e0e09eaed56d2ff7aceb5ddec374805c24e8c0",
    "heatmap_empty": "d136cfb090ce6d6017e97dfcfaa13dab4e33b0f22ae3aaced1571d38583ba470",
    "reliability_10": "b85d38a186931a07ebc6c0e1f5d8904441073ef3a7925b6a7b38dee7d58ed388",
    "reliability_15": "df4aa7f21c33dad85e63b78bdd595f421689b97cbdd04fea3e5d967a8134c4ca",
}


class TestSvgBytesPinned:
    @staticmethod
    def _digest(svg):
        import hashlib

        return hashlib.sha256(svg.encode()).hexdigest()

    def test_heatmap(self, tmp_path):
        from vrlkit.evalkit import EntropyProfile

        hist = ((np.arange(20 * 30).reshape(20, 30) * 7919) % 53).astype(np.int64)
        prof = EntropyProfile(np.linspace(0, 1, 20), np.zeros((1, 20)), hist,
                              np.linspace(0, 1, 31))
        svg = heatmap_svg(prof, tmp_path / "h.svg")
        assert self._digest(svg) == SVG_DIGESTS["heatmap"]
        assert (tmp_path / "h.svg").read_text() == svg
        empty = EntropyProfile(np.linspace(0, 1, 5), np.zeros((1, 5)),
                               np.zeros((5, 4), dtype=np.int64), np.linspace(0, 1, 5))
        assert self._digest(heatmap_svg(empty)) == SVG_DIGESTS["heatmap_empty"]

    @pytest.mark.parametrize("n_bins", [10, 15])
    def test_reliability(self, tmp_path, n_bins):
        rng = np.random.default_rng(11)
        probs = softmax(3.0 * rng.normal(size=(200, 3)))
        labels = rng.integers(0, 3, size=200)
        svg = reliability_svg(probs, labels, BinningSpec("equal_width", n_bins),
                              tmp_path / "r.svg")
        assert self._digest(svg) == SVG_DIGESTS[f"reliability_{n_bins}"]
        assert (tmp_path / "r.svg").read_text() == svg
