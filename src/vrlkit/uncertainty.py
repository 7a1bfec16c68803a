"""Per-sample uncertainty scores and the last-layer Laplace approximation.

All scores are normalized to the orientation "larger = more uncertain" so
downstream AUROC code never branches per measure: the maximum-probability
score is stored as 1 - MPS and the feature-density score as the minimum
class Mahalanobis distance.

The Laplace posterior covers the final dense layer only.  Curvature is the
generalized Gauss-Newton of softmax cross-entropy, kept either in Kronecker
factored form (feature-side V, output-side U) or, for small layers, as the
exact dense GGN-plus-prior inverse.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .datagen import Dataset
from .tensor import RngState, as_matrix

MEASURES = ("entropy", "ds", "energy", "mps_uncertainty", "mahalanobis")

# Floats per chunk of mc_predictive's logit draws and of the exact logit
# covariances' (rows, K*K, D) product: whole-n temporaries run to megabytes,
# and one draw of all n rows at once was slower than the per-row loop.
_MC_CHUNK_FLOATS = 64 * 1024


@dataclass
class UncertaintyScores:
    """Per-sample scalar scores; larger always means more uncertain."""

    measure: str
    values: np.ndarray

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)

    def __len__(self):
        return self.values.size


def entropy_of(probs) -> np.ndarray:
    """Row-wise Shannon entropy (natural log, 0*log(0) treated as 0)."""
    p = as_matrix(probs)
    return -(p * np.log(np.maximum(p, nn.EPS_LOG))).sum(axis=1)


def entropy_score(probs) -> UncertaintyScores:
    return UncertaintyScores("entropy", entropy_of(probs))


def _logsumexp_rows(logits) -> np.ndarray:
    s = as_matrix(logits)
    m = s.max(axis=1)
    return m + np.log(np.exp(s - m[:, None]).sum(axis=1))


def ds_score(logits) -> UncertaintyScores:
    """Dempster-Shafer score K / (K + sum_i exp(s_i)), computed in log space."""
    s = as_matrix(logits)
    k = s.shape[1]
    lse = _logsumexp_rows(s)
    log_ds = np.log(k) - np.logaddexp(np.log(k), lse)
    return UncertaintyScores("ds", np.exp(log_ds))


def energy_score(logits) -> UncertaintyScores:
    """Energy score -log sum_i exp(s_i); already oriented (larger = uncertain)."""
    return UncertaintyScores("energy", -_logsumexp_rows(logits))


def mps_score(probs) -> UncertaintyScores:
    """Maximum-probability score, stored as 1 - max_i p_i."""
    p = as_matrix(probs)
    return UncertaintyScores("mps_uncertainty", 1.0 - p.max(axis=1))


@dataclass
class ClassGaussians:
    """Per-class feature Gaussians fit on train data."""

    means: np.ndarray        # (K, D)
    covariances: np.ndarray  # (K, D, D), symmetric
    epsilon: float           # diagonal regularizer added before inversion


def fit_class_gaussians(features, labels, epsilon: float | None = None) -> ClassGaussians:
    """Class-wise feature mean and covariance (unbiased), train data only.

    epsilon defaults to 1e-3 times the mean covariance diagonal; the
    feature-density score is known to be sensitive to this stabilizer, so it
    stays an explicit knob.
    """
    phi = as_matrix(features)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    d = phi.shape[1]
    means = np.empty((classes.size, d))
    covs = np.empty((classes.size, d, d))
    for i, c in enumerate(classes):
        members = phi[labels == c]
        if members.shape[0] < 2:
            raise ValueError(f"class {c} needs >= 2 samples to fit a covariance")
        means[i] = members.mean(axis=0)
        centered = members - means[i]
        covs[i] = centered.T @ centered / (members.shape[0] - 1)
    if epsilon is None:
        epsilon = 1e-3 * float(np.mean([np.trace(c) / d for c in covs]))
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and > 0")
    return ClassGaussians(means, covs, float(epsilon))


def mahalanobis_score(g: ClassGaussians, features) -> UncertaintyScores:
    """Minimum class Mahalanobis distance (phi-mu)' (Sigma+eps I)^-1 (phi-mu)."""
    phi = as_matrix(features)
    d = phi.shape[1]
    dists = np.empty((phi.shape[0], g.means.shape[0]))
    eye = np.eye(d)
    for i in range(g.means.shape[0]):
        centered = phi - g.means[i]
        solved = np.linalg.solve(g.covariances[i] + g.epsilon * eye, centered.T)
        dists[:, i] = (centered * solved.T).sum(axis=1)
    return UncertaintyScores("mahalanobis", dists.min(axis=1))


@dataclass
class LaplacePosterior:
    """Gaussian posterior over the last layer around the MAP weights.

    map_weights is (K, D') with the bias folded in as a trailing constant-one
    feature when include_bias is set.  V (feature side, D'xD') and U (output
    side, KxK) are the prior-augmented Kronecker precision factors; the
    posterior precision is U (x) V under row-major weight layout.  exact_cov,
    when present, is the dense (K*D')^2 inverse of GGN + prior precision.
    """

    map_weights: np.ndarray
    V: np.ndarray
    U: np.ndarray
    sigma0: float
    include_bias: bool = True
    exact_cov: np.ndarray | None = None

    @property
    def n_classes(self) -> int:
        return self.map_weights.shape[0]


def _augment(features, include_bias):
    phi = as_matrix(features)
    if include_bias:
        return np.hstack([phi, np.ones((phi.shape[0], 1))])
    return phi


def fit_laplace_last_layer(
    net: nn.Network,
    train_ds: Dataset,
    sigma0: float,
    exact: bool = False,
    include_bias: bool = True,
) -> LaplacePosterior:
    """Fit the last-layer posterior in one pass over the train set.

    V accumulates sum_n phi phi', U the averaged softmax curvature
    diag(p) - p p'; each factor then gains 1/sigma0 on its diagonal so the
    Kronecker product carries the full prior precision 1/sigma0^2.  With
    exact=True the dense GGN + prior is formed and inverted as well (small
    layers only), one GEMM per class pair with that pair's row weights
    built as it is needed.  Only logits and features of the forward are
    kept, not its cache.
    """
    if not 0 < sigma0 < math.inf:
        raise ValueError("sigma0 must be finite and > 0")
    logits, features = nn.forward(net, train_ds.x)[:2]
    probs = nn.softmax(logits)
    phi = _augment(features, include_bias)
    n, d = phi.shape
    k = probs.shape[1]
    V = phi.T @ phi
    U = np.diag(probs.mean(axis=0)) - probs.T @ probs / n
    tau_sqrt = 1.0 / sigma0
    V = 0.5 * (V + V.T) + tau_sqrt * np.eye(d)
    U = 0.5 * (U + U.T) + tau_sqrt * np.eye(k)
    for name, factor in (("V", V), ("U", U)):
        try:
            np.linalg.cholesky(factor)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(
                f"factor {name} not positive definite after prior addition"
            ) from err
    w = net.weights[-1].T  # (K, D_feat)
    if include_bias:
        w = np.hstack([w, net.biases[-1][:, None]])
    exact_cov = None
    if exact:
        # sum_n kron(Lambda_n, phi_n phi_n') with Lambda_n = diag(p_n) - p_n p_n':
        # block (a, b) is phi' (Lambda[:, a, b] * phi); the a > b blocks are
        # mirrored so the GGN is exactly symmetric
        ggn = np.empty((k * d, k * d))
        for a in range(k):
            for b in range(a, k):
                lam_ab = probs[:, a] * (float(a == b) - probs[:, b])
                block = phi.T @ (lam_ab[:, None] * phi)
                ggn[a * d:(a + 1) * d, b * d:(b + 1) * d] = block
                ggn[b * d:(b + 1) * d, a * d:(a + 1) * d] = block.T
        ggn += (1.0 / sigma0**2) * np.eye(k * d)
        exact_cov = np.linalg.inv(ggn)
    return LaplacePosterior(w, V, U, float(sigma0), include_bias, exact_cov)


def laplace_logit_variance(
    post: LaplacePosterior, features, exact: bool = False
) -> np.ndarray:
    """Per-sample, per-class logit variance: the diagonals of _logit_covariances."""
    phi = _augment(features, post.include_bias)
    return np.einsum("nkk->nk", _logit_covariances(post, phi, exact))


def _logit_covariances(post: LaplacePosterior, phi, exact: bool) -> np.ndarray:
    """(n, K, K) logit covariance per sample.

    Factored form: (phi' V^-1 phi) * sym(U^-1).  With exact=True, J Cov J'
    from the dense covariance instead, in equal row chunks whose (rows, K*K,
    D) product holds at most _MC_CHUNK_FLOATS values (and at least one row),
    so no n*K*K*D array is held.  A given n always gets the same equal
    chunks, so the bits replay.  A one-row product is a GEMV, whose bits
    differ from a GEMM's, and equal chunks of three or more rows leave no such
    tail; the chunks' bits equal one contraction over all rows only while
    every GEMM stays on one BLAS kernel (OpenBLAS's small-matrix DGEMM takes
    the smaller calls, so at K = 10 they need not).
    """
    n = phi.shape[0]
    k = post.n_classes
    if exact:
        if post.exact_cov is None:
            raise ValueError("posterior was fit without exact covariance")
        d = phi.shape[1]
        # Cov[x, a, y, b] -> (a, x*y*b), contract a with phi, then b per row
        blocks = post.exact_cov.reshape(k, d, k, d).transpose(1, 0, 2, 3).reshape(d, k * k * d)
        out = np.empty((n, k, k))
        chunks = -(-n // max(1, _MC_CHUNK_FLOATS // (k * k * d)))
        for i in range(chunks):
            lo, hi = i * n // chunks, (i + 1) * n // chunks
            half = (phi[lo:hi] @ blocks).reshape(hi - lo, k * k, d)
            out[lo:hi] = (half @ phi[lo:hi, :, None]).reshape(hi - lo, k, k)
        return out
    q = (phi * np.linalg.solve(post.V, phi.T).T).sum(axis=1)
    u_inv = np.linalg.inv(post.U)
    u_inv = 0.5 * (u_inv + u_inv.T)
    return q[:, None, None] * u_inv


def mc_predictive(
    post: LaplacePosterior, features, m: int = 1000,
    rng: RngState | None = None, exact: bool = False,
) -> np.ndarray:
    """Monte-Carlo predictive: average softmax over m logit samples.

    Logits are drawn from N(s, Sigma(x)); the sampling factor comes from an
    eigendecomposition with eigenvalues clipped at zero, so a vanishing
    covariance reproduces softmax(s) exactly.  Rows are sampled in chunks of
    about _MC_CHUNK_FLOATS draws; the draws, products and sums run in the
    same order as one (m, K) draw per row would.  The softmax runs on
    (K, m, rows) class planes and writes (m, rows, K), so the sum over m is
    over the outer axis: sequential, where a contiguous axis sums pairwise.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if rng is None:
        raise ValueError("mc_predictive needs an RngState to draw logit samples")
    phi = _augment(features, post.include_bias)
    s = phi @ post.map_weights.T
    w, vecs = np.linalg.eigh(_logit_covariances(post, phi, exact))
    factor_t = (vecs * np.sqrt(np.clip(w, 0.0, None))[:, None, :]).transpose(0, 2, 1)
    n, k = s.shape
    out = np.empty((n, k))
    rows = max(1, _MC_CHUNK_FLOATS // (m * k))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        z = rng.normal((hi - lo, m, k))
        planes, p = np.empty((k + 1, m, hi - lo)), np.empty((m, hi - lo, k))
        np.add(s[lo:hi].T[:, None], (z @ factor_t[lo:hi]).transpose(2, 1, 0), out=planes[:k])
        nn._softmax_planes(planes, k, out=p.transpose(2, 0, 1))
        np.divide(np.add.reduce(p, axis=0), m, out=out[lo:hi])
    return out


def meanfield_predictive(
    post: LaplacePosterior, features, mf_lambda: float, exact: bool = False
) -> np.ndarray:
    """Mean-field predictive: softmax of s_k / sqrt(1 + lambda * var_k)."""
    if not 0 <= mf_lambda < math.inf:
        raise ValueError("mf_lambda must be finite and >= 0")
    phi = _augment(features, post.include_bias)
    s = phi @ post.map_weights.T
    var = np.einsum("nkk->nk", _logit_covariances(post, phi, exact))
    return nn.softmax(s / np.sqrt(1.0 + mf_lambda * var))

