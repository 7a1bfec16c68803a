import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from vrlkit.datagen import apply_normalizer, fit_normalizer, make_gaussian_blobs, split
from vrlkit.evalkit import auroc, fisher_criterion
from vrlkit.nn import forward, softmax
from vrlkit.tensor import RngState
from vrlkit.trainer import TrainConfig, train
from vrlkit import uncertainty
from vrlkit.uncertainty import (
    LaplacePosterior,
    ds_score,
    energy_score,
    entropy_of,
    entropy_score,
    fit_class_gaussians,
    fit_laplace_last_layer,
    laplace_logit_variance,
    mahalanobis_score,
    mc_predictive,
    meanfield_predictive,
    mps_score,
)


class TestSimpleScores:
    def test_entropy_uniform(self):
        s = entropy_score(np.full((1, 10), 0.1))
        assert s.values[0] == pytest.approx(math.log(10), abs=1e-12)

    def test_entropy_one_hot(self):
        row = np.zeros((1, 5))
        row[0, 2] = 1.0
        assert entropy_score(row).values[0] == pytest.approx(0.0, abs=1e-9)

    def test_entropy_binary(self):
        assert entropy_score([[0.5, 0.5]]).values[0] == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_ds_zero_logits(self):
        s = ds_score(np.zeros((1, 10)))
        assert s.values[0] == pytest.approx(0.5, abs=1e-12)

    def test_ds_limit_large_logits(self):
        values = [ds_score(np.full((1, 4), c)).values[0] for c in (0.0, 10.0, 100.0, 700.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-100
        assert np.isfinite(values).all()

    def test_energy_zero_logits(self):
        s = energy_score(np.zeros((1, 10)))
        assert s.values[0] == pytest.approx(-math.log(10), abs=1e-12)

    def test_energy_shift(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 5))
        base = energy_score(logits).values
        shifted = energy_score(logits + 3.0).values
        assert np.allclose(shifted, base - 3.0, atol=1e-12)

    def test_mps_cases(self):
        one_hot = np.zeros((1, 4))
        one_hot[0, 1] = 1.0
        assert mps_score(one_hot).values[0] == pytest.approx(0.0, abs=1e-15)
        assert mps_score(np.full((1, 10), 0.1)).values[0] == pytest.approx(0.9, abs=1e-12)
        assert mps_score([[0.7, 0.2, 0.1]]).values[0] == pytest.approx(0.3, abs=1e-15)

    def test_ds_energy_same_ranking(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(40, 6)) * 3
        ds = ds_score(logits).values
        en = energy_score(logits).values
        assert np.array_equal(np.argsort(ds), np.argsort(en))

    def test_ds_energy_same_auroc(self):
        rng = np.random.default_rng(2)
        logits_in = rng.normal(size=(30, 5))
        logits_out = rng.normal(size=(25, 5)) - 1.0
        a_ds = auroc(ds_score(logits_in), ds_score(logits_out))
        a_en = auroc(energy_score(logits_in), energy_score(logits_out))
        assert a_ds == pytest.approx(a_en, abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(12, 4))
        perm = rng.permutation(12)
        for fn, arg in ((ds_score, logits), (energy_score, logits),
                        (entropy_score, softmax(logits)), (mps_score, softmax(logits))):
            assert np.array_equal(fn(arg).values[perm], fn(arg[perm]).values)

    def test_duplicate_row_invariance(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 3))
        probs = softmax(logits)
        for fn, arg in ((ds_score, logits), (energy_score, logits),
                        (entropy_score, probs), (mps_score, probs)):
            doubled = np.vstack([arg, arg[:1]])
            assert np.array_equal(fn(doubled).values[:5], fn(arg).values)


class TestMahalanobis:
    def _fixture(self):
        rng = np.random.default_rng(5)
        f0 = rng.normal(size=(40, 2)) + [0.0, 0.0]
        f1 = rng.normal(size=(40, 2)) + [6.0, 0.0]
        features = np.vstack([f0, f1])
        labels = np.array([0] * 40 + [1] * 40)
        return features, labels

    def test_score_zero_at_class_mean(self):
        features, labels = self._fixture()
        g = fit_class_gaussians(features, labels, epsilon=1e-6)
        scores = mahalanobis_score(g, g.means)
        assert np.allclose(scores.values, 0.0, atol=1e-9)

    def test_isotropic_reduces_to_squared_distance(self):
        means = np.array([[0.0, 0.0], [4.0, 0.0]])
        g_fixture = fit_class_gaussians(
            np.vstack([means[0] + np.eye(2), means[0] - np.eye(2),
                       means[1] + np.eye(2), means[1] - np.eye(2)]),
            np.array([0, 0, 0, 0, 1, 1, 1, 1]),
            epsilon=1e-12,
        )
        # overwrite with exact isotropic gaussians
        g_fixture.means = means
        g_fixture.covariances = np.stack([np.eye(2), np.eye(2)])
        q = np.array([[1.0, 1.0]])
        scores = mahalanobis_score(g_fixture, q)
        assert scores.values[0] == pytest.approx(2.0, rel=1e-9)  # min over classes

    def test_matches_dense_inverse_oracle(self):
        features, labels = self._fixture()
        g = fit_class_gaussians(features, labels, epsilon=1e-3)
        rng = np.random.default_rng(6)
        queries = rng.normal(size=(10, 2)) * 3
        got = mahalanobis_score(g, queries).values
        want = []
        for q in queries:
            per_class = []
            for mean, cov in zip(g.means, g.covariances):
                inv = np.linalg.inv(cov + g.epsilon * np.eye(2))
                delta = q - mean
                per_class.append(delta @ inv @ delta)
            want.append(min(per_class))
        assert np.allclose(got, want, atol=1e-9)

    def test_small_class_rejected(self):
        with pytest.raises(ValueError):
            fit_class_gaussians(np.zeros((3, 2)), np.array([0, 0, 1]))

    def test_default_epsilon_positive(self):
        features, labels = self._fixture()
        g = fit_class_gaussians(features, labels)
        assert g.epsilon > 0


def trained_blob_fixture(hidden=(8,), k=2, seed=0, epochs=30):
    base = make_gaussian_blobs(300, k, 6.0, RngState(40 + seed).split(1), noise_sd=1.0)
    tr_raw, te_raw = split(base, 0.8, stratified=True, rng=RngState(41).split(2))
    stats = fit_normalizer(tr_raw)
    tr, te = apply_normalizer(tr_raw, stats), apply_normalizer(te_raw, stats)
    cfg = TrainConfig(
        strategy="erm", hidden_dims=hidden, epochs=epochs, batch_size=32,
        learning_rate=0.1, seed=seed,
    )
    net, _ = train(cfg, tr, None)
    return net, tr, te


class TestLaplace:
    def test_factors_positive_definite(self):
        net, tr, _ = trained_blob_fixture()
        post = fit_laplace_last_layer(net, tr, sigma0=1.0)
        for factor in (post.V, post.U):
            assert np.allclose(factor, factor.T, atol=1e-12)
            assert np.linalg.eigvalsh(factor).min() > 0

    def test_strong_prior_gives_deterministic_softmax(self):
        net, tr, te = trained_blob_fixture()
        post = fit_laplace_last_layer(net, tr, sigma0=1e-8)
        logits, feats, _ = forward(net, te.x)
        var = laplace_logit_variance(post, feats)
        assert var.max() < 1e-10
        probs = mc_predictive(post, feats, m=20, rng=RngState(1).split(0))
        assert np.allclose(probs, softmax(logits), atol=1e-6)

    def test_variance_nonnegative_and_zero_for_null_feature(self):
        net, tr, te = trained_blob_fixture()
        post = fit_laplace_last_layer(net, tr, sigma0=1.0, include_bias=False)
        _, feats, _ = forward(net, te.x)
        assert laplace_logit_variance(post, feats).min() >= 0.0
        zero = laplace_logit_variance(post, np.zeros((1, feats.shape[1])))
        assert np.array_equal(zero, np.zeros((1, post.n_classes)))

    def test_kronecker_consistent_fixture_matches_exact(self):
        # posterior built so that the dense covariance IS kron(U^-1, V^-1);
        # the factored variance path must then agree with the exact path
        rng = np.random.default_rng(7)
        d, k = 4, 3
        a = rng.normal(size=(d, d))
        V = a @ a.T + d * np.eye(d)
        b = rng.normal(size=(k, k))
        U = b @ b.T + k * np.eye(k)
        post = LaplacePosterior(
            map_weights=rng.normal(size=(k, d)),
            V=V,
            U=U,
            sigma0=1.0,
            include_bias=False,
            exact_cov=np.linalg.inv(np.kron(U, V)),
        )
        feats = rng.normal(size=(6, d))
        kfac = laplace_logit_variance(post, feats, exact=False)
        exact = laplace_logit_variance(post, feats, exact=True)
        assert np.allclose(kfac, exact, atol=1e-9)
        mf_k = meanfield_predictive(post, feats, 1.0, exact=False)
        mf_e = meanfield_predictive(post, feats, 1.0, exact=True)
        assert np.allclose(mf_k, mf_e, atol=1e-9)

    def test_kfac_vs_exact_entropy_ordering(self):
        net, tr, te = trained_blob_fixture(hidden=(8,), k=2, epochs=40)
        post = fit_laplace_last_layer(net, tr, sigma0=1.0, exact=True)
        # probe the transition zone between the class centroids, where the
        # predictive entropy sweeps its full range and ranks are informative
        c0 = tr.x[tr.labels == 0].mean(axis=0)
        c1 = tr.x[tr.labels == 1].mean(axis=0)
        lams = np.linspace(0.0, 1.0, 40)[:, None]
        probe = (1 - lams) * c0 + lams * c1
        _, feats, _ = forward(net, probe)
        p_kfac = mc_predictive(post, feats, m=800, rng=RngState(2).split(0))
        p_exact = mc_predictive(post, feats, m=800, rng=RngState(3).split(0), exact=True)
        rho = scipy_stats.spearmanr(entropy_of(p_kfac), entropy_of(p_exact)).statistic
        assert rho >= 0.9

    def test_mc_zero_covariance_is_exact(self):
        rng = np.random.default_rng(9)
        d, k = 3, 4
        post = LaplacePosterior(
            map_weights=rng.normal(size=(k, d)),
            V=np.eye(d),
            U=np.eye(k),
            sigma0=1.0,
            include_bias=False,
        )
        feats = np.zeros((2, d))  # q = phi' V^-1 phi = 0 -> Sigma(x) = 0
        probs = mc_predictive(post, feats, m=5, rng=RngState(4).split(0))
        want = softmax(feats @ post.map_weights.T)
        assert np.array_equal(probs, want)

    def test_mc_reproducible(self):
        net, tr, te = trained_blob_fixture()
        post = fit_laplace_last_layer(net, tr, sigma0=1.0)
        _, feats, _ = forward(net, te.x[:5])
        a = mc_predictive(post, feats, m=50, rng=RngState(5).split(1))
        b = mc_predictive(post, feats, m=50, rng=RngState(5).split(1))
        assert np.array_equal(a, b)

    def test_mc_default_sample_count(self):
        import inspect

        assert inspect.signature(mc_predictive).parameters["m"].default == 1000

    def test_mc_error_shrinks_with_m(self):
        net, tr, te = trained_blob_fixture()
        post = fit_laplace_last_layer(net, tr, sigma0=2.0)
        _, feats, _ = forward(net, te.x[:1])
        spreads = []
        for m in (10, 100, 1000):
            vals = [
                mc_predictive(post, feats, m=m, rng=RngState(100 + r).split(0))[0, 0]
                for r in range(20)
            ]
            spreads.append(np.std(vals))
        assert spreads[1] < spreads[0] / 2.0
        assert spreads[2] < spreads[1] / 2.0

    def test_meanfield_identities(self):
        net, tr, te = trained_blob_fixture()
        post = fit_laplace_last_layer(net, tr, sigma0=1.0)
        logits, feats, _ = forward(net, te.x)
        assert np.array_equal(meanfield_predictive(post, feats, 0.0), softmax(logits))

    def test_meanfield_flattens_with_lambda(self):
        net, tr, te = trained_blob_fixture()
        post = fit_laplace_last_layer(net, tr, sigma0=1.0)
        _, feats, _ = forward(net, te.x)
        entropies = [
            entropy_of(meanfield_predictive(post, feats, lam)).mean()
            for lam in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(entropies, entropies[1:]))

    def test_invalid_sigma0(self):
        net, tr, _ = trained_blob_fixture()
        with pytest.raises(ValueError):
            fit_laplace_last_layer(net, tr, sigma0=0.0)

    def test_factored_variance_equals_outer_oracle_bitwise(self):
        net, tr, te = trained_blob_fixture(k=3)
        post = fit_laplace_last_layer(net, tr, sigma0=1.0)
        _, feats, _ = forward(net, te.x)
        phi = np.hstack([feats, np.ones((feats.shape[0], 1))])
        q = (phi * np.linalg.solve(post.V, phi.T).T).sum(axis=1)
        want = np.outer(q, np.diag(np.linalg.inv(post.U)))
        assert laplace_logit_variance(post, feats).tobytes() == want.tobytes()

    def test_mc_without_rng_rejected(self):
        net, tr, te = trained_blob_fixture()
        post = fit_laplace_last_layer(net, tr, sigma0=1.0)
        _, feats, _ = forward(net, te.x[:4])
        with pytest.raises(ValueError, match="RngState"):
            mc_predictive(post, feats, m=3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda post, f: laplace_logit_variance(post, f, exact=True),
            lambda post, f: mc_predictive(post, f, m=3, rng=RngState(1).split(0), exact=True),
            lambda post, f: meanfield_predictive(post, f, 1.0, exact=True),
        ],
        ids=["laplace_logit_variance", "mc_predictive", "meanfield_predictive"],
    )
    def test_exact_without_exact_cov_rejected(self, call):
        net, tr, te = trained_blob_fixture()
        post = fit_laplace_last_layer(net, tr, sigma0=1.0)
        _, feats, _ = forward(net, te.x[:4])
        with pytest.raises(ValueError, match="without exact covariance"):
            call(post, feats)


def _kron_ggn_oracle(net, ds, sigma0):
    """Dense GGN + prior as a sum of one np.kron per training sample."""
    logits, feats, _ = forward(net, ds.x)
    probs = softmax(logits)
    phi = np.hstack([feats, np.ones((feats.shape[0], 1))])
    n, d = phi.shape
    k = probs.shape[1]
    ggn = np.zeros((k * d, k * d))
    for i in range(n):
        lam = np.diag(probs[i]) - np.outer(probs[i], probs[i])
        ggn += np.kron(lam, np.outer(phi[i], phi[i]))
    return ggn + (1.0 / sigma0**2) * np.eye(k * d)


def _einsum_cov_oracle(post, phi):
    """Exact logit covariances with one einsum per sample."""
    n, d = phi.shape
    k = post.n_classes
    blocks = post.exact_cov.reshape(k, d, k, d)
    return np.stack([np.einsum("a,xayb,b->xy", phi[i], blocks, phi[i]) for i in range(n)])


def _one_contraction_cov_oracle(post, phi):
    """Exact logit covariances as one (n, K*K, D) contraction over all rows."""
    n, d = phi.shape
    k = post.n_classes
    blocks = post.exact_cov.reshape(k, d, k, d).transpose(1, 0, 2, 3).reshape(d, k * k * d)
    half = (phi @ blocks).reshape(n, k * k, d)
    return (half @ phi[:, :, None]).reshape(n, k, k)


def _lam_array_exact_cov_oracle(net, ds, sigma0):
    """Dense GGN + prior inverse, from one (n, K, K) array of Lambda_n."""
    logits, feats, _ = forward(net, ds.x)
    probs = softmax(logits)
    phi = np.hstack([feats, np.ones((feats.shape[0], 1))])
    d, k = phi.shape[1], probs.shape[1]
    lam = probs[:, :, None] * (np.eye(k) - probs[:, None, :])
    ggn = np.empty((k * d, k * d))
    for a in range(k):
        for b in range(a, k):
            block = phi.T @ (lam[:, a, b, None] * phi)
            ggn[a * d:(a + 1) * d, b * d:(b + 1) * d] = block
            ggn[b * d:(b + 1) * d, a * d:(a + 1) * d] = block.T
    ggn += (1.0 / sigma0**2) * np.eye(k * d)
    return np.linalg.inv(ggn)


def _mc_loop_oracle(s, covs, m, rng):
    """One eigh, one (m, K) draw and one softmax per sample."""
    n, k = s.shape
    out = np.zeros((n, k))
    for i in range(n):
        w, vecs = np.linalg.eigh(covs[i])
        factor = vecs * np.sqrt(np.clip(w, 0.0, None))
        z = rng.normal((m, k))
        out[i] = softmax(s[i] + z @ factor.T).mean(axis=0)
    return out


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@functools.cache
def _exact_posterior(k):
    net, tr, te = trained_blob_fixture(k=k)
    return net, tr, te, fit_laplace_last_layer(net, tr, sigma0=1.0, exact=True)


@pytest.fixture(scope="module", params=[2, 3, 4, 10], ids=["k2", "k3", "k4", "k10"])
def exact_posterior(request):
    return _exact_posterior(request.param)


# The one-contraction oracle is the chunks' bits only while OpenBLAS runs both
# in the same DGEMM kernel. Its small-matrix kernel takes M*N*K <= 1e6, and at
# k = 10 (N = 900, K = 9) two chunks plus three rows exceed that in one call.
@pytest.fixture(scope="module", params=[2, 3, 4], ids=["k2", "k3", "k4"])
def exact_posterior_small_k(request):
    return _exact_posterior(request.param)


class TestExactLaplaceOracles:
    """The batched exact path against the per-sample loops it replaced."""

    def test_exact_cov_equals_kron_oracle(self, exact_posterior):
        net, tr, _, post = exact_posterior
        ggn = _kron_ggn_oracle(net, tr, sigma0=1.0)
        assert _rel_err(post.exact_cov, np.linalg.inv(ggn)) < 1e-12

    def test_logit_covariances_equal_einsum_oracle(self, exact_posterior):
        net, _, te, post = exact_posterior
        _, feats, _ = forward(net, te.x)
        phi = np.hstack([feats, np.ones((feats.shape[0], 1))])
        got = uncertainty._logit_covariances(post, phi, exact=True)
        assert _rel_err(got, _einsum_cov_oracle(post, phi)) < 1e-12

    def test_exact_cov_equals_lam_array_assembly_bitwise(self, exact_posterior):
        net, tr, _, post = exact_posterior
        want = _lam_array_exact_cov_oracle(net, tr, sigma0=1.0)
        assert post.exact_cov.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["one", "rows_minus_1", "rows", "rows_plus_1",
                                      "two_chunks_plus_3"])
    def test_chunked_logit_covariances_equal_one_contraction_bitwise(
        self, exact_posterior_small_k, case
    ):
        net, _, te, post = exact_posterior_small_k
        k, d = post.n_classes, post.map_weights.shape[1]
        rows = max(1, uncertainty._MC_CHUNK_FLOATS // (k * k * d))  # rows per chunk
        n = {"one": 1, "rows_minus_1": rows - 1, "rows": rows, "rows_plus_1": rows + 1,
             "two_chunks_plus_3": 2 * rows + 3}[case]
        _, feats, _ = forward(net, te.x)
        phi = np.hstack([np.resize(feats, (n, feats.shape[1])), np.ones((n, 1))])
        got = uncertainty._logit_covariances(post, phi, exact=True)
        assert got.tobytes() == _one_contraction_cov_oracle(post, phi).tobytes()

    def test_k10_chunk_layout_is_fixed_by_n(self):
        # At k = 10 a chunk's bits need not be one contraction's over all rows
        # (see exact_posterior_small_k); replay rests on n alone fixing the chunks.
        net, _, te, post = _exact_posterior(10)
        k, d = post.n_classes, post.map_weights.shape[1]
        rows = uncertainty._MC_CHUNK_FLOATS // (k * k * d)
        n = 2 * rows + 3
        _, feats, _ = forward(net, te.x)
        phi = np.hstack([np.resize(feats, (n, feats.shape[1])), np.ones((n, 1))])
        seen = set()

        class RowSlices(np.ndarray):
            """Records the row range of every slice taken of it."""

            def __getitem__(self, key):
                first = key[0] if isinstance(key, tuple) else key
                if isinstance(first, slice):
                    seen.add((first.start, first.stop))
                return super().__getitem__(key)

        got = uncertainty._logit_covariances(post, phi.view(RowSlices), exact=True)
        chunks = sorted(seen)
        assert chunks == [(i * n // 3, (i + 1) * n // 3) for i in range(3)]
        assert min(hi - lo for lo, hi in chunks) >= 3
        for lo, hi in chunks:
            want = _one_contraction_cov_oracle(post, phi[lo:hi])
            assert got[lo:hi].tobytes() == want.tobytes()

    def test_exact_logit_variance_peak_memory_is_bounded(self):
        # the whole (n, K*K, D) product of one contraction is n*K*K*D*8 bytes
        n, k, d = 4000, 4, 17
        rng = np.random.default_rng(3)
        root = rng.normal(size=(k * d, k * d))
        post = LaplacePosterior(
            rng.normal(size=(k, d)), np.eye(d), np.eye(k), 1.0,
            exact_cov=root @ root.T / (k * d),
        )
        feats = rng.normal(size=(n, d - 1))
        tracemalloc.start()
        try:
            var = laplace_logit_variance(post, feats, exact=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert var.shape == (n, k)
        assert peak < n * k * k * d * 8 / 3

    @pytest.mark.parametrize("exact", [False, True], ids=["factored", "exact"])
    @pytest.mark.parametrize(
        "case,n,m", [("one_row", 1, 50), ("ragged", 47, 1000), ("row_per_chunk", 3, 40000)]
    )
    def test_mc_equals_loop_oracle_bitwise(self, exact_posterior, exact, case, n, m):
        net, _, te, post = exact_posterior
        k = post.n_classes
        rows = max(1, uncertainty._MC_CHUNK_FLOATS // (m * k))  # rows per chunk
        assert {"one_row": n == 1, "ragged": rows > 1 and n % rows != 0,
                "row_per_chunk": rows == 1}[case]
        _, feats, _ = forward(net, te.x[:n])
        phi = np.hstack([feats, np.ones((n, 1))])
        covs = uncertainty._logit_covariances(post, phi, exact)
        rng_got, rng_want = RngState(11).split(k), RngState(11).split(k)
        got = mc_predictive(post, feats, m=m, rng=rng_got, exact=exact)
        want = _mc_loop_oracle(phi @ post.map_weights.T, covs, m, rng_want)
        assert got.tobytes() == want.tobytes()
        assert rng_got.normal(3).tobytes() == rng_want.normal(3).tobytes()


def _hyperparameter_call(name, value):
    rng = np.random.default_rng(0)
    feats, labels = rng.normal(size=(20, 3)), np.repeat([0, 1], 10)
    if name == "sigma0":
        net, tr, _ = trained_blob_fixture(epochs=1)
        return fit_laplace_last_layer(net, tr, sigma0=value)
    if name == "mf_lambda":
        post = LaplacePosterior(rng.normal(size=(2, 4)), np.eye(4), np.eye(2), 1.0)
        return meanfield_predictive(post, feats, mf_lambda=value)
    if name == "gaussians_epsilon":
        return fit_class_gaussians(feats, labels, epsilon=value)
    return fisher_criterion(feats, labels, epsilon=value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("name,message", [
    ("sigma0", "sigma0 must be finite and > 0"),
    ("mf_lambda", "mf_lambda must be finite and >= 0"),
    ("gaussians_epsilon", "epsilon must be finite and > 0"),
    ("fisher_epsilon", "epsilon must be finite and >= 0"),
])
def test_hyperparameter_must_be_finite_and_in_range(name, message, value):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _hyperparameter_call(name, value)
