import math
import zlib

import numpy as np
import pytest

from vrlkit import nn
from vrlkit.nn import (
    GradientSet,
    LayerSpec,
    Network,
    OptimState,
    backward,
    cross_entropy_soft,
    forward,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    softmax,
    weighted_ce,
)
from vrlkit.tensor import RngState, ShapeError


def random_net(layer_dims, activation, rng, param_sd=0.1):
    specs = [
        LayerSpec(a, b, activation) for a, b in zip(layer_dims[:-2], layer_dims[1:-1])
    ]
    specs.append(LayerSpec(layer_dims[-2], layer_dims[-1], "identity"))
    net = Network(specs)
    for i in range(len(net.weights)):
        net.weights[i] = param_sd * rng.normal(net.weights[i].shape)
        net.biases[i] = param_sd * rng.normal(net.biases[i].shape)
    return net


def finite_diff_grads(loss_fn, net, h=1e-5):
    """Central finite differences over every parameter of the network."""
    grads = []
    for arr in [*net.weights, *net.biases]:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4):
    for a, b in zip(analytic, numeric):
        assert np.all(np.abs(a - b) <= rel * (np.abs(b) + 1e-6))


class TestForward:
    def test_zero_weights_zero_logits(self):
        net = Network([LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "identity")])
        logits, _, _ = forward(net, np.ones((5, 3)))
        assert np.array_equal(logits, np.zeros((5, 2)))

    def test_identity_layer_passthrough(self):
        net = Network([LayerSpec(3, 3, "identity")])
        net.weights[0] = np.eye(3)
        x = np.arange(6.0).reshape(2, 3)
        logits, features, _ = forward(net, x)
        assert np.array_equal(logits, x)
        assert np.array_equal(features, x)  # single layer: features are the inputs

    def test_matches_hand_rolled_two_layer(self):
        rng = RngState(3)
        net = random_net([2, 4, 3], "tanh", rng)
        x = np.array([[0.3, -1.2], [2.0, 0.5]])
        # independent forward computation
        h = np.tanh(x @ net.weights[0] + net.biases[0])
        want = h @ net.weights[1] + net.biases[1]
        logits, features, _ = forward(net, x)
        assert np.allclose(logits, want, atol=1e-12, rtol=0)
        assert np.allclose(features, h, atol=1e-12, rtol=0)

    def test_shape_error(self):
        net = Network([LayerSpec(3, 2, "identity")])
        with pytest.raises(ShapeError):
            forward(net, np.zeros((4, 5)))

    def test_dims_must_chain(self):
        with pytest.raises(ShapeError):
            Network([LayerSpec(2, 3, "relu"), LayerSpec(4, 2, "identity")])

    def test_last_layer_must_be_identity(self):
        with pytest.raises(ValueError):
            Network([LayerSpec(2, 2, "relu")])


class TestSoftmax:
    def test_uniform_for_equal_logits(self):
        out = softmax(np.full((2, 10), 3.7))
        assert np.allclose(out, 0.1, atol=1e-15)

    def test_shift_invariance(self):
        logits = np.array([[0.5, -1.0, 2.0]])
        assert np.allclose(softmax(logits), softmax(logits + 123.0), atol=1e-15)

    def test_direct_evaluation(self):
        out = softmax(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(
            out, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-8, rtol=0
        )

    def test_rows_sum_to_one_large_magnitude(self):
        rng = np.random.default_rng(0)
        for scale in (1.0, 100.0, 1000.0):
            logits = scale * rng.normal(size=(50, 7))
            sums = softmax(logits).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-12)


def class_order_sum(x):
    """The sum of x over its last axis, adding the classes in order."""
    total = x[..., 0].copy()
    for c in range(1, x.shape[-1]):
        total = total + x[..., c]
    return total


def softmax_class_last(logits, row_sum=class_order_sum):
    """The row softmax on the class-last array, its rows summed by ``row_sum``."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / row_sum(e)[..., None]


def numpy_sum(x):
    return x.sum(axis=-1)


def hard_logits(rng, k):
    """(22, k) logits with tied rows, +-0.0, magnitudes near 1e300 and -inf."""
    rows = [
        rng.normal(size=(6, k)) * 8.0,
        np.full((2, k), 3.0),  # one value: every class ties
        rng.choice([0.0, -0.0], size=(3, k)),  # +-0.0 only
        np.where(rng.random((3, k)) < 0.5, -0.0, -rng.random((3, k))),  # ties at -0.0
        rng.choice([-1e300, 1e300], size=(2, k)) * (1 + rng.normal(size=(2, k)) * 1e-15),
        1e300 * (1 + rng.normal(size=(2, k)) * 1e-15),  # near-ties at 1e300
        -1e300 * rng.random((1, k)),
        rng.normal(size=(1, k)),  # one -inf entry below
        np.full((1, k), -np.inf),  # every entry -inf: NaN
        np.full((1, k), 2.0),  # a -inf below every other entry
    ]
    logits = np.concatenate(rows)
    logits[-3, 0] = -np.inf
    logits[-1, -1] = -np.inf
    return logits


class TestClassMajorSoftmax:
    """softmax works on class planes, yet equals the class-last expression byte
    for byte: its rows summed in class order, which for k < 8 is numpy's own
    sum, at every class count and for odd values."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 9, 10, 16, 17, 100, 130])
    def test_bitwise_equal_to_class_last(self, k):
        rng = np.random.default_rng(k)
        plain = hard_logits(rng, k)
        stacked = np.stack([plain, rng.permutation(plain), hard_logits(rng, k)])
        row_sums = [class_order_sum, *([numpy_sum] if k < 8 else [])]
        with np.errstate(invalid="ignore"):
            for logits in (plain, stacked, plain[:0], stacked[:, :0]):
                got = softmax(logits)
                for row_sum in row_sums:
                    want = softmax_class_last(logits, row_sum)
                    assert got.shape == want.shape and got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes()
            assert np.isnan(softmax(plain)[-2]).all()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 9, 10, 16, 17, 100, 130])
    def test_class_sum_leaves_planes_intact_with_scratch(self, k):
        rng = np.random.default_rng(50 + k)
        x = np.exp(rng.normal(size=(5, 7, k)) * 6.0)  # class-last
        planes = np.ascontiguousarray(np.moveaxis(x, -1, 0))
        before = planes.copy()
        total = nn._class_sum(planes, np.empty((1, 5, 7)))
        assert planes.tobytes() == before.tobytes()
        assert total.tobytes() == class_order_sum(x).tobytes()
        assert k >= 8 or total.tobytes() == x.sum(axis=-1).tobytes()

    def test_no_classes_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.empty((4, 0)))
        with pytest.raises(ValueError):
            softmax(np.empty((2, 4, 0)))

    def test_input_untouched_and_any_layout(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(12, 5))
        before = logits.copy()
        view = np.asfortranarray(logits)[::2]
        assert softmax(view).tobytes() == softmax_class_last(before[::2]).tobytes()
        assert softmax(logits.tolist()).tobytes() == softmax_class_last(before).tobytes()
        assert logits.tobytes() == before.tobytes()


class TestCrossEntropySoft:
    def test_uniform_is_log_k(self):
        p = np.full((4, 10), 0.1)
        assert cross_entropy_soft(p, p) == pytest.approx(math.log(10), abs=1e-12)

    def test_perfect_one_hot_is_zero(self):
        t = np.zeros((3, 5))
        t[:, 2] = 1.0
        assert cross_entropy_soft(t, t) == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_target(self):
        rng = np.random.default_rng(1)
        p = softmax(rng.normal(size=(6, 4)))
        yi = np.eye(4)[rng.integers(0, 4, size=6)]
        yj = np.eye(4)[rng.integers(0, 4, size=6)]
        lam = 0.37
        mixed = cross_entropy_soft(p, lam * yi + (1 - lam) * yj)
        parts = lam * cross_entropy_soft(p, yi) + (1 - lam) * cross_entropy_soft(p, yj)
        assert mixed == pytest.approx(parts, abs=1e-12)

    def test_negative_target_rejected(self):
        p = np.full((1, 2), 0.5)
        with pytest.raises(ValueError):
            cross_entropy_soft(p, np.array([[1.5, -0.5]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy_soft(np.full((1, 2), 0.5), np.full((1, 3), 1 / 3))

    def test_weighted_ce_rejects_a_negative_target(self):
        net = random_net([3, 2], "identity", RngState(3))
        with pytest.raises(ValueError, match="target entries must be >= 0"):
            weighted_ce(net, np.zeros((1, 3)), np.array([[1.5, -0.5]]))

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(2)
        p = softmax(rng.normal(size=(5, 6)))
        t = softmax(rng.normal(size=(5, 6)))
        perm = rng.permutation(6)
        assert cross_entropy_soft(p, t) == pytest.approx(
            cross_entropy_soft(p[:, perm], t[:, perm]), abs=1e-12
        )


class TestBackward:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(), (7,), (6, 5), (5, 4, 4)])
    def test_finite_difference_agreement(self, activation, hidden):
        # crc32 of the parameters, unlike hash(), is the same in every process
        rng = RngState(zlib.crc32(repr((activation, hidden)).encode()))
        dims = [3, *hidden, 4]
        net = random_net(dims, activation, rng)
        x = rng.normal((8, 3))
        targets = np.eye(4)[np.asarray(rng.integers(0, 4, size=8))]

        def loss_fn():
            logits, _, _ = forward(net, x)
            return cross_entropy_soft(softmax(logits), targets)

        logits, _, cache = forward(net, x)
        grads = backward(net, cache, targets)
        numeric = finite_diff_grads(loss_fn, net)
        assert_grads_close([*grads.d_weights, *grads.d_biases], numeric)

    def test_zero_gradient_at_matching_prediction(self):
        net = Network([LayerSpec(2, 3, "identity")])
        net.weights[0] = np.array([[0.5, -0.2, 0.1], [0.3, 0.9, -0.4]])
        x = np.array([[1.0, -2.0], [0.5, 0.25]])
        logits, _, cache = forward(net, x)
        grads = backward(net, cache, softmax(logits))  # targets == predictions
        for g in [*grads.d_weights, *grads.d_biases]:
            assert np.allclose(g, 0.0, atol=1e-15)

    def test_half_batch_linearity(self):
        rng = RngState(9)
        net = random_net([3, 5, 2], "relu", rng)
        x = rng.normal((10, 3))
        t = np.eye(2)[np.asarray(rng.integers(0, 2, size=10))]
        _, _, cache = forward(net, x)
        full = backward(net, cache, t)
        _, _, c1 = forward(net, x[:4])
        g1 = backward(net, c1, t[:4])
        _, _, c2 = forward(net, x[4:])
        g2 = backward(net, c2, t[4:])
        for f, a, b in zip(full.d_weights, g1.d_weights, g2.d_weights):
            assert np.allclose(f, 0.4 * a + 0.6 * b, atol=1e-12)

    def test_stale_cache_rejected(self):
        net = random_net([2, 3], "relu", RngState(1))
        other = random_net([2, 3], "relu", RngState(2))
        _, _, cache = forward(net, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            backward(other, cache, np.eye(3)[:2])


def ce_oracle(net, x, y):
    """One plain network's batch-mean CE and its gradient arrays, from
    forward, backward and cross_entropy_soft alone."""
    logits, _, cache = forward(net, x)
    grads = backward(net, cache, y)
    return cross_entropy_soft(softmax(logits), y), [*grads.d_weights, *grads.d_biases]


class TestWeightedCe:
    def _fixture(self, seed):
        rng = RngState(seed)
        net = random_net([3, 6, 5, 4], "relu", rng)
        x = rng.normal((9, 3))
        y = np.eye(4)[np.asarray(rng.integers(0, 4, size=9))]
        x_m = rng.normal((9, 3))
        y_m = 0.3 * y + 0.7 * y[::-1]
        return net, x, y, x_m, y_m

    def test_one_term_equals_forward_backward_bitwise(self):
        net, x, y, _, _ = self._fixture(31)
        loss, grads = weighted_ce(net, x, y)
        want_loss, want = ce_oracle(net, x, y)
        assert loss == want_loss
        for a, b in zip([*grads.d_weights, *grads.d_biases], want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0, 2.5])
    def test_weight_scales_loss_and_gradient_bitwise(self, eta):
        net, _, _, x_m, y_m = self._fixture(32)
        loss, grads = weighted_ce(net, x_m, y_m, eta)
        b, g_m = ce_oracle(net, x_m, y_m)
        assert loss == eta * b
        for got, ref in zip([*grads.d_weights, *grads.d_biases], g_m):
            assert np.array_equal(got, eta * ref)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0, 2.5])
    def test_two_terms_equal_weighted_sum_bitwise(self, eta):
        net, x, y, x_m, y_m = self._fixture(32)
        loss, grads = nn._two_term_ce(net, np.concatenate([x, x_m]), np.concatenate([y, y_m]),
                                      0, 1, eta)
        a, g_c = ce_oracle(net, x, y)
        b, g_m = ce_oracle(net, x_m, y_m)
        assert loss == a + eta * b and np.ndim(loss) == 0
        for got, gc, gm, param in zip([*grads.d_weights, *grads.d_biases], g_c, g_m,
                                      [*net.weights, *net.biases]):
            assert got.shape == param.shape
            assert np.array_equal(got, gc + eta * gm)


def stacked_runs(n_runs=3, rows=7):
    """Plain nets of one architecture, with one batch of inputs and targets each."""
    nets = [random_net([3, 6, 5, 4], "relu", RngState(40 + r), param_sd=0.5)
            for r in range(n_runs)]
    rng = RngState(50)
    xs = [rng.normal((rows, 3)) for _ in nets]
    ys = [np.eye(4)[np.asarray(rng.integers(0, 4, size=rows))] for _ in nets]
    return nets, xs, ys


class TestStacked:
    """A stacked network computes each run exactly as the plain network would."""

    def test_run_maps_in_turn_equal_plain_forwards_bitwise(self):
        # a plan's run map takes the clean rows of the runs [c, R), then the
        # mixed rows of [0, m); a map used after another must not read the
        # other's stretches
        nets, xs, _ = stacked_runs()
        plans = {(c, m): nn._StepPlan(nets, c, m, np.ones(m), [7]) for c, m in ((1, 2), (0, 0))}
        for c, m in ((1, 2), (0, 0), (1, 2)):
            plan, order = plans[c, m], [*range(c, 3), *range(m)]
            logits, features, _ = forward(plan.net, np.concatenate([xs[r] for r in order]),
                                          _plan=plan)
            assert logits.shape == (len(order), 7, 4)
            for block, r in enumerate(order):
                want_logits, want_features, _ = forward(nets[r], xs[r])
                assert np.array_equal(logits[block], want_logits)
                assert np.array_equal(features[block], want_features)

    def test_stack_unstack_round_trip(self):
        nets, _, _ = stacked_runs()
        stacked = Network.stack(nets)
        assert stacked.weights[1].shape == (3, 6, 5) and stacked.biases[1].shape == (3, 5)
        for net, back in zip(nets, stacked.unstack()):
            for a, b in zip([*net.weights, *net.biases], [*back.weights, *back.biases]):
                assert np.array_equal(a, b) and b.flags["C_CONTIGUOUS"]

    def test_mixed_architectures_rejected(self):
        a = random_net([3, 4, 2], "relu", RngState(1))
        b = random_net([3, 4, 2], "tanh", RngState(1))
        with pytest.raises(ValueError):
            Network.stack([a, b])

    def test_rows_must_split_into_runs(self):
        nets, _, _ = stacked_runs()
        with pytest.raises(ShapeError):
            forward(Network.stack(nets), np.zeros((8, 3)))

    def test_weighted_ce_and_sgd_equal_per_run_bitwise(self):
        nets, xs, ys = stacked_runs()
        x_m = [x[::-1] * 0.5 for x in xs]
        y_m = [0.3 * y + 0.7 * y[::-1] for y in ys]
        etas = [0.4, 1.0, 0.0]
        stacked = Network.stack(nets)
        loss, grads = weighted_ce(stacked, np.concatenate(x_m), np.concatenate(y_m), np.array(etas))
        opt = OptimState(learning_rate=0.1, momentum=0.9, weight_decay=0.01)
        sgd_step(stacked, grads, opt, 0.25)
        for r, net in enumerate(nets):
            b, g_m = ce_oracle(net, x_m[r], y_m[r])
            want = [etas[r] * g for g in g_m]
            assert loss[r] == etas[r] * b
            for got, ref in zip([*grads.d_weights, *grads.d_biases], want):
                assert np.array_equal(got[r], ref)
            half = len(want) // 2
            sgd_step(net, GradientSet(want[:half], want[half:]),
                     OptimState(learning_rate=0.1, momentum=0.9, weight_decay=0.01), 0.25)
        for net, back in zip(nets, stacked.unstack()):
            for a, b in zip([*net.weights, *net.biases], [*back.weights, *back.biases]):
                assert np.array_equal(a, b)


class TestTermRuns:
    """The lockstep step: a mixed term over the runs [0, m) of a stacked
    network and a clean term over the runs [c, R), c <= m, in one pass over
    the clean rows of the runs [c, R) and then the mixed rows."""

    ETAS = (1.0, 0.4, 2.5)  # run r's mixed-term weight when it has both terms

    def _plan(self, c, m, sizes=(7,)):
        etas = np.array([1.0 if r < c else self.ETAS[r] for r in range(m)])
        return nn._StepPlan(stacked_runs()[0], c, m, etas, sizes)

    def _step(self, c, m, plan=None):
        """The step's (loss, grads) on three runs, and each run's expected
        (loss, gradient arrays): a for the clean term, eta * b for the mixed
        one and a + eta * b for both."""
        nets, xs, ys = stacked_runs()
        x_m = [x[::-1] * 0.5 for x in xs]
        y_m = [0.3 * y + 0.7 * y[::-1] for y in ys]
        etas = np.array([1.0 if r < c else self.ETAS[r] for r in range(m)])
        x = np.concatenate([*xs[c:], *x_m[:m]])
        t = np.concatenate([*ys[c:], *y_m[:m]])
        net = Network.stack(nets) if plan is None else plan.net
        got = nn._two_term_ce(net, x, t, c, m, etas, _plan=plan)
        want = []
        for r, net in enumerate(nets):
            a, g_c = ce_oracle(net, xs[r], ys[r])
            if r < m:
                b, g_m = ce_oracle(net, x_m[r], y_m[r])
                eta = etas[r]
                if r < c:
                    a, g_c = eta * b, [eta * g for g in g_m]
                else:
                    a, g_c = a + eta * b, [gc + eta * gm for gc, gm in zip(g_c, g_m)]
            want.append((a, g_c))
        return got, want

    @pytest.mark.parametrize("planned", [False, True], ids=["fresh", "plan"])
    @pytest.mark.parametrize("c, m", [(0, 0), (3, 3), (1, 1), (1, 2), (0, 3), (1, 3)])
    def test_step_equals_runs_alone_bitwise(self, c, m, planned):
        (loss, grads), want = self._step(c, m, self._plan(c, m) if planned else None)
        for r, (want_loss, want_arrays) in enumerate(want):
            assert loss[r] == want_loss
            for got, ref in zip([*grads.d_weights, *grads.d_biases], want_arrays):
                assert np.array_equal(got[r], ref)

    @pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stacked"])
    @pytest.mark.parametrize("call", ["weighted_ce", "regmix_mixed", "regmix_clean"])
    def test_library_call_equals_a_hand_built_plan_bitwise(self, call, stacked):
        # weighted_ce is c = m = R; regmix_loss is c = 0 < m = R with a mixed
        # batch and m = 0 without one.  A library call builds its own plan.
        from vrlkit.vicinal import MixedBatch, regmix_loss
        nets, xs, ys = (part[:3 if stacked else 1] for part in stacked_runs())
        net, runs = (Network.stack(nets), 3) if stacked else (nets[0], 1)
        eta = np.array(self.ETAS) if stacked else 0.4
        x, y = np.concatenate(xs), np.concatenate(ys)
        x_m, y_m = x[::-1] * 0.5, 0.3 * y + 0.7 * y[::-1]
        params = [*net.weights, *net.biases]
        before = [p.copy() for p in params]
        if call == "weighted_ce":
            (c, m), x_all, t_all = (runs, runs), x_m, y_m
            got_loss, got = weighted_ce(net, x_m, y_m, eta)
        elif call == "regmix_mixed":
            (c, m), x_all, t_all = (0, runs), np.concatenate([x, x_m]), np.concatenate([y, y_m])
            got_loss, got = regmix_loss(net, x, y, MixedBatch(x_m, y_m), eta)
        else:
            (c, m), x_all, t_all = (0, 0), x, y
            got_loss, got = regmix_loss(net, x, y, None, eta)
        plan = nn._StepPlan(nets, c, m, eta, [7])
        loss, want = nn._two_term_ce(plan.net, x_all, t_all, c, m, eta, _plan=plan)
        got, want = [*got.d_weights, *got.d_biases], [*want.d_weights, *want.d_biases]
        if not stacked:
            loss, want = loss[0], [g[0] for g in want]
        assert np.ndim(got_loss) == np.ndim(loss) and np.array_equal(got_loss, loss)
        for a, b, p in zip(got, want, params, strict=True):
            assert a.shape == p.shape and np.array_equal(a, b)
        # the caller's net keeps its arrays and their bits, and no gradient is a view of them
        assert all(a is b for a, b in zip([*net.weights, *net.biases], params))
        assert all(np.array_equal(a, b) for a, b in zip(params, before))
        assert not any(np.shares_memory(g, p) for g in got for p in params)

    def test_plan_arrays_give_the_same_bits_and_are_reused(self):
        (want_loss, want), _ = self._step(1, 2)
        plan = self._plan(1, 2)
        steps = [self._step(1, 2, plan)[0] for _ in range(2)]
        for loss, grads in steps:
            assert np.array_equal(loss, want_loss)
            for got, ref in zip([*grads.d_weights, *grads.d_biases],
                                [*want.d_weights, *want.d_biases]):
                assert np.array_equal(got, ref)
                assert np.shares_memory(got, plan.sgd[1])  # the plan's gradient sums
        (_, first), (_, second) = steps
        assert all(a is b for a, b in zip([*first.d_weights, *first.d_biases],
                                          [*second.d_weights, *second.d_biases]))

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_forward_and_backward_with_a_plan_equal_fresh_bitwise(self, activation):
        # batch sizes 9 and 5: the 5-row arrays are prefixes of the 9-row ones
        net = random_net([3, 6, 5, 4], activation, RngState(60))
        plan = nn._StepPlan([net], 0, 0, np.ones(0), [9, 5, 9])
        rng = RngState(61)
        for rows in (9, 5, 9):
            x = rng.normal((rows, 3))
            y = np.eye(4)[np.asarray(rng.integers(0, 4, size=rows))]
            logits, features, cache = forward(net, x)
            want = backward(net, cache, y)
            got_logits, got_features, got_cache = forward(plan.net, x, _plan=plan)
            got, = backward(plan.net, got_cache, y, _plan=plan)
            assert np.array_equal(got_logits[0], logits) and np.array_equal(got_features[0], features)
            arrays = plan.layers[rows]
            assert got_features is arrays.act[1] and got_logits is arrays.pre[2]
            assert np.shares_memory(arrays.delta[0], plan.layers[9].delta[0])
            for a, b in zip([*got.d_weights, *got.d_biases], [*want.d_weights, *want.d_biases]):
                assert np.array_equal(a[0], b)

    def test_plan_row_views(self):
        # each run's gathered rows, then the mixed rows of the runs [0, m);
        # the step reads the clean rows of the runs [c, R) and the mixed ones
        plan = self._plan(1, 2, sizes=(7, 3))
        for rows in (7, 3):
            xb, yb, x_runs, y_runs, x_step, y_step = plan.rows[rows]
            assert xb.shape == ((3 + 2) * rows, 3) and yb.shape == ((3 + 2) * rows, 4)
            assert x_runs.shape == (3, rows, 3) and y_runs.shape == (3, rows, 4)
            assert np.shares_memory(x_runs, xb[:3 * rows]) and np.shares_memory(y_runs, yb)
            assert x_step.shape == ((3 - 1 + 2) * rows, 3) and np.shares_memory(x_step, xb[-1])
            assert np.shares_memory(xb, plan.rows[7][0])


def chunk_oracle(inp, delta):
    """inp^T @ delta as the sum of 256-row chunks' GEMMs, first to last."""
    total = None
    for lo in range(0, inp.shape[-2], 256):
        part = inp[..., lo:lo + 256, :].swapaxes(-1, -2) @ delta[..., lo:lo + 256, :]
        total = part if total is None else total + part
    return total


class TestWeightGradChunks:
    """The weight gradient sums its batch in 256-row chunks, in a fixed order."""

    def _operands(self, rows, stacked):
        rng = RngState(rows)
        lead = (2,) if stacked else ()
        return rng.normal((*lead, rows, 33)), rng.normal((*lead, rows, 65))

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("rows", [64, 256])
    def test_one_chunk_is_the_plain_gemm_bitwise(self, rows, stacked):
        inp, delta = self._operands(rows, stacked)
        want = np.matmul(inp.swapaxes(-1, -2), delta)
        assert np.array_equal(nn._weight_grad(inp, delta, None), want)
        out = np.empty_like(want)
        assert nn._weight_grad(inp, delta, out) is out and np.array_equal(out, want)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("rows", [257, 1024, 1025])
    def test_longer_batches_sum_their_chunks_in_order_bitwise(self, rows, stacked):
        inp, delta = self._operands(rows, stacked)
        assert np.array_equal(nn._weight_grad(inp, delta, None), chunk_oracle(inp, delta))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_backward_takes_the_chunked_sum(self, stacked):
        # one identity layer: d_W = x^T @ (softmax(x W + b) - t) / rows
        nets = [random_net([33, 5], "identity", RngState(90 + r)) for r in range(2)]
        net = Network.stack(nets) if stacked else nets[0]
        runs = 2 if stacked else 1
        rng = RngState(91)
        x = rng.normal((runs * 1025, 33))
        t = np.eye(5)[np.asarray(rng.integers(0, 5, size=runs * 1025))]
        logits, _, cache = forward(net, x)
        grads = backward(net, cache, t)
        delta = (softmax(logits) - t.reshape(logits.shape)) / 1025
        want = chunk_oracle(x.reshape(*logits.shape[:-1], 33), delta)
        assert np.array_equal(grads.d_weights[0], want)


class TestSgdStep:
    def test_mismatched_gradient_after_a_good_call_with_other_arrays(self):
        # every call without a plan checks the gradient shapes
        net = random_net([3, 4, 2], "relu", RngState(60))
        opt = OptimState(learning_rate=0.1, momentum=0.9)
        good = [np.ones_like(p) for p in [*net.weights, *net.biases]]
        sgd_step(net, GradientSet(good[:2], good[2:]), opt, 0.0)
        bad = [np.ones_like(p) for p in [*net.weights, *net.biases]]
        bad[1] = np.ones((2, 4))
        with pytest.raises(ShapeError, match=r"gradient \(2, 4\) vs parameter \(4, 2\)"):
            sgd_step(net, GradientSet(bad[:2], bad[2:]), opt, 0.5)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_chunked_update_equals_three_temporary_formula_bitwise(self, momentum):
        # two stacked runs of a (4684, 7) weight: 4 chunks and 40 values
        rows = 2 * nn._SGD_CHUNK // 7 + 3
        nets = [random_net([rows, 7, 3], "relu", RngState(70 + r)) for r in range(2)]
        net = Network.stack(nets)
        assert net.weights[0].size > nn._SGD_CHUNK and net.weights[0].size % nn._SGD_CHUNK
        params = [*net.weights, *net.biases]
        want = [p.copy() for p in params]
        vels = [np.zeros_like(p) for p in params]
        opt = OptimState(learning_rate=0.2, momentum=momentum, weight_decay=0.01,
                         schedule="cosine")
        rng = RngState(80)
        for frac in (0.0, 0.3, 0.7):
            grads = [rng.normal(p.shape) for p in params]
            sgd_step(net, GradientSet(grads[:2], grads[2:]), opt, frac)
            lr = opt.lr_at(frac)
            for p, g, vel in zip(want, grads, vels):  # the formula before chunking
                g = g + opt.weight_decay * p
                vel *= momentum
                vel += g
                step = g + momentum * vel if momentum > 0.0 else g
                p -= lr * step
        for got, ref in zip(params, want):
            assert np.array_equal(got, ref)

    def _step_and_formula(self, net, grads, opt, monkeypatch, steps=2, plan=None):
        """sgd_step ``steps`` times against the per-array formula, bit for
        bit; returns the sizes of the flat arrays each call updated."""
        params, passes = [*net.weights, *net.biases], []
        grad_list = [*grads.d_weights, *grads.d_biases]
        want = [p.copy() for p in params]
        vels = [np.zeros_like(p) for p in params]
        chunks = nn._sgd_chunks
        monkeypatch.setattr(nn, "_sgd_chunks", lambda p, *a: (passes.append(p.size), chunks(p, *a)))
        for frac in (0.1, 0.6)[:steps]:
            sgd_step(net, grads, opt, frac, _plan=plan)
            lr = opt.lr_at(frac)
            for p, g, vel in zip(want, grad_list, vels):
                g = g + opt.weight_decay * p
                vel *= opt.momentum
                vel += g
                p -= lr * (g + opt.momentum * vel)
        for got, ref in zip(params, want):
            assert np.array_equal(got, ref)
        return passes

    def test_plan_blocks_update_in_one_pass_bitwise(self, monkeypatch):
        # a mixed-only, a regularized and a clean-only run: c = 1, m = 2, R = 3
        nets, xs, ys = stacked_runs()
        plan = nn._StepPlan(nets, 1, 2, np.array([1.0, 0.4]), [7])
        net = plan.net
        x = np.concatenate([*xs[1:], *(x[::-1] * 0.5 for x in xs[:2])])
        t = np.concatenate([*ys[1:], *(0.3 * y + 0.7 * y[::-1] for y in ys[:2])])
        _, grads = nn._two_term_ce(net, x, t, 1, 2, np.array([1.0, 0.4]), _plan=plan)
        opt = OptimState(learning_rate=0.2, momentum=0.9, weight_decay=0.01)
        passes = self._step_and_formula(net, grads, opt, monkeypatch, plan=plan)
        params = [*net.weights, *net.biases]
        assert passes == [sum(p.size for p in params)] * 2
        for arrays, block in ((params, plan.sgd[0]), ([*grads.d_weights, *grads.d_biases],
                                                      plan.sgd[1])):
            assert [a.shape for a in arrays] == [p.shape for p in params]
            assert np.array_equal(np.concatenate([a.reshape(-1) for a in arrays]), block)
            assert all(np.shares_memory(a, block) for a in arrays)
        assert opt._vel == []  # the plan holds the velocities

    def test_reassigned_arrays_update_array_by_array_bitwise(self, monkeypatch):
        nets, xs, ys = stacked_runs()
        net = Network.stack(nets)
        net.weights[1] = net.weights[1].copy()  # no longer in the stacked block
        _, grads = weighted_ce(net, np.concatenate(xs), np.concatenate(ys))
        opt = OptimState(learning_rate=0.2, momentum=0.9, weight_decay=0.01)
        passes = self._step_and_formula(net, grads, opt, monkeypatch, steps=1)
        assert passes == [p.size for p in [*net.weights, *net.biases]]

    def test_grads_of_one_block_out_of_parameter_order_update_array_by_array(self, monkeypatch):
        net = Network.stack(stacked_runs()[0])
        shapes = [p.shape for p in [*net.weights, *net.biases]]
        flat = RngState(82).normal((sum(int(np.prod(shape)) for shape in shapes),))
        grads = nn._tiles(shapes[::-1], lambda n: flat[:n])[::-1]  # the last parameter's first
        opt = OptimState(learning_rate=0.2, momentum=0.9, weight_decay=0.01)
        passes = self._step_and_formula(net, GradientSet(grads[:3], grads[3:]), opt,
                                        monkeypatch, steps=1)
        assert passes == [int(np.prod(shape)) for shape in shapes]

    def test_arrays_over_one_byte_buffer_update_array_by_array(self, monkeypatch):
        # views of one bytearray share a base that is not an ndarray
        net = Network([LayerSpec(3, 2, "identity")])
        raw = bytearray(8 * 8)
        net.weights[0] = np.ndarray((3, 2), buffer=raw)
        net.biases[0] = np.ndarray((2,), buffer=raw, offset=48)
        assert net.weights[0].base is raw and net.biases[0].base is raw
        net.weights[0][...] = np.arange(6.0).reshape(3, 2)
        grads = np.frombuffer(bytearray(8 * 8))
        grads[...] = RngState(83).normal((8,))
        opt = OptimState(learning_rate=0.2, momentum=0.9, weight_decay=0.01)
        passes = self._step_and_formula(
            net, GradientSet([grads[:6].reshape(3, 2)], [grads[6:]]), opt, monkeypatch)
        assert passes == [6, 2] * 2

    def test_strided_parameter_is_updated_in_place(self):
        net = Network([LayerSpec(3, 2, "identity")])
        weights = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        net.weights[0] = weights
        opt = OptimState(learning_rate=0.5)
        sgd_step(net, GradientSet([np.ones((3, 2))], [np.zeros(2)]), opt, 0.0)
        assert net.weights[0] is weights
        assert np.array_equal(weights, np.arange(6.0).reshape(3, 2) - 0.5)

    def test_vanilla_sgd(self):
        net = Network([LayerSpec(2, 2, "identity")])
        net.weights[0] = np.ones((2, 2))
        grads_w = [np.full((2, 2), 0.5)]
        grads_b = [np.zeros(2)]
        from vrlkit.nn import GradientSet

        opt = OptimState(learning_rate=0.2, momentum=0.0, weight_decay=0.0)
        sgd_step(net, GradientSet(grads_w, grads_b), opt, 0.0)
        assert np.allclose(net.weights[0], 1.0 - 0.2 * 0.5, atol=1e-15)

    def test_cosine_schedule_endpoints(self):
        opt = OptimState(learning_rate=0.3, schedule="cosine")
        assert opt.lr_at(0.0) == pytest.approx(0.3, abs=1e-12)
        assert opt.lr_at(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_momentum_steps_match_scalar_recurrence(self):
        from vrlkit.nn import GradientSet

        net = Network([LayerSpec(1, 1, "identity")])
        net.weights[0] = np.array([[1.0]])
        opt = OptimState(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        g1, g2 = 0.4, -0.2
        sgd_step(net, GradientSet([np.array([[g1]])], [np.zeros(1)]), opt, 0.0)
        sgd_step(net, GradientSet([np.array([[g2]])], [np.zeros(1)]), opt, 0.0)
        # scalar hand-simulation of the same recurrence
        theta, vel = 1.0, 0.0
        for g in (g1, g2):
            vel = 0.9 * vel + g
            theta -= 0.1 * (g + 0.9 * vel)
        assert net.weights[0][0, 0] == pytest.approx(theta, abs=1e-15)

    def test_weight_decay_enters_gradient(self):
        from vrlkit.nn import GradientSet

        net = Network([LayerSpec(1, 1, "identity")])
        net.weights[0] = np.array([[2.0]])
        opt = OptimState(learning_rate=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step(net, GradientSet([np.zeros((1, 1))], [np.zeros(1)]), opt, 0.0)
        assert net.weights[0][0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, abs=1e-15)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = RngState(77)
        net = random_net([3, 8, 5, 2], "tanh", rng)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert [s.activation for s in loaded.layers] == [s.activation for s in net.layers]
        for a, b in zip(loaded.weights, net.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.biases, net.biases):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("width", [b"2.0", b"true", b'"2"'])
    def test_rejects_non_integer_layer_width(self, tmp_path, width):
        path = tmp_path / "net.ckpt"
        save_checkpoint(random_net([2, 3], "tanh", RngState(1)), path)
        path.write_bytes(path.read_bytes().replace(b'"in": 2', b'"in": ' + width, 1))
        with pytest.raises(ValueError, match="bad checkpoint header"):
            load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)
