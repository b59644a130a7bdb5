"""Closed-form quantities for entropy training under Gaussian vicinal perturbation.

A feature ``z`` is classified by an affine head (``weights @ z + biases``
followed by softmax). Perturbing ``z`` with zero-mean Gaussian noise of
diagonal covariance ``sigma`` shifts each class logit by half its
quadratic form ``a_i Sigma a_i^T`` in expectation, which yields:

* ``robust_probs`` -- the ratio-of-expectations prediction under perturbation,
* ``augmented_entropy`` -- a closed-form upper bound on the expected entropy
  over infinitely many perturbed copies, usable as a training loss,
* ``class_pair_weight`` -- the factor ``exp(q_ij / 2)`` (with
  ``q_ij = (a_i - a_j) Sigma (a_i - a_j)^T``) that inflates the loss for
  samples confusing two far-apart class prototypes.

The two training losses are objects built once from a head (and, for
the augmented entropy, a covariance): ``EntropyLoss`` and
``AugmentedEntropyLoss``. Their ``value_and_pullback`` scores an (n, d)
batch of features, or a (k, n, d) stack of batches over its last axis, and
returns the per-sample losses, a pullback that forms the feature gradients
from the same intermediates, and the plain-softmax probabilities, so a
caller needs no second head pass or softmax. They are
the only batch code for these quantities; the single-feature functions
below wrap them.

The augmented entropy sums over class pairs, but is computed as two
(n, C)·(C, C) products: with K = A Sigma A^T and h = diag(K)/2,
q_ij/2 = h_i + h_j - K_ij, so every pair term factors into a row term in
the robust logits and a column term in K. Rows and columns are shifted by
their maxima; entries whose sum underflows anyway are recomputed exactly
in the pair form (see ``AugmentedEntropyLoss``).

Everything here is float64. Softmaxes and entropies subtract the row
maximum before exponentiating. ``augmented_entropy_decomposed``, the
independent reference, still evaluates the class-pair weights literally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatch",
    "ClassifierHead",
    "DiagCovariance",
    "logits",
    "softmax",
    "entropy",
    "softmax_rows",
    "log_softmax_rows",
    "EntropyLoss",
    "AugmentedEntropyLoss",
    "robust_probs",
    "augmented_entropy",
    "augmented_entropy_decomposed",
    "class_pair_weight",
    "grad_augmented_entropy_wrt_feature",
    "grad_entropy_wrt_feature",
]


class DimensionMismatch(ValueError):
    """Operands disagree on a required dimension."""


def _vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ClassifierHead:
    """Affine classifier; row i of ``weights`` is the class-i prototype.

    weights: (C, d) matrix, biases: (C,) vector, all entries finite.
    """

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise DimensionMismatch(
                f"biases shape {b.shape} does not match weights rows {w.shape[0]}"
            )
        if w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"head needs C >= 1 and d >= 1, got shape {w.shape}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("head parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class DiagCovariance:
    """Diagonal covariance: one non-negative variance per feature dimension."""

    variances: np.ndarray

    def __post_init__(self):
        v = _vector(self.variances, "variances")
        if not np.isfinite(v).all():
            raise ValueError("variances must be finite")
        if (v < 0).any():
            raise ValueError("variances must be non-negative")
        object.__setattr__(self, "variances", v)

    @classmethod
    def zeros(cls, d: int) -> "DiagCovariance":
        return cls(np.zeros(d))

    @property
    def dim(self) -> int:
        return self.variances.shape[0]

    def scaled(self, factor: float) -> "DiagCovariance":
        return DiagCovariance(self.variances * float(factor))


def _check_feature(head: ClassifierHead, z) -> np.ndarray:
    z = _vector(z, "feature")
    if z.shape[0] != head.feature_dim:
        raise DimensionMismatch(
            f"feature has dim {z.shape[0]}, head expects dim {head.feature_dim}"
        )
    if not np.isfinite(z).all():
        raise ValueError("feature must be finite")
    return z


def _check_sigma(head: ClassifierHead, sigma: DiagCovariance) -> None:
    if sigma.dim != head.feature_dim:
        raise DimensionMismatch(
            f"covariance has dim {sigma.dim}, head expects dim {head.feature_dim}"
        )


def _feature_rows(head: ClassifierHead, Z) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim not in (2, 3) or Z.shape[-1] != head.feature_dim:
        raise DimensionMismatch(
            f"feature batch has shape {Z.shape}, head expects (n, {head.feature_dim})"
        )
    return Z


def logits(head: ClassifierHead, z) -> np.ndarray:
    """Affine scores ``weights @ z + biases``."""
    z = _check_feature(head, z)
    return head.weights @ z + head.biases


def softmax(values) -> np.ndarray:
    """Max-subtracted softmax of a logit vector."""
    return softmax_rows(_vector(values, "logits"))


def softmax_rows(L: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (n, C) logit matrix, as a new float64 array.

    Works in place on its own temporary: the shifted logits are formed as
    float64 (so integer logits are accepted), exponentiated and normalized.
    """
    e = np.subtract(L, L.max(axis=-1, keepdims=True), dtype=np.float64)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax_rows(L: np.ndarray) -> np.ndarray:
    shifted = L - L.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def entropy(probs) -> float:
    """Shannon entropy in nats, with 0*log(0) taken as 0. Lies in [0, ln C]."""
    p = _vector(probs, "probs")
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(-terms.sum())


def _class_quadratic_forms(head: ClassifierHead, sigma: DiagCovariance) -> np.ndarray:
    # q_i = a_i Sigma a_i^T for diagonal Sigma
    return (head.weights * head.weights) @ sigma.variances


def _pair_quadratic_forms(head: ClassifierHead, sigma: DiagCovariance) -> np.ndarray:
    # q[i, j] = (a_i - a_j) Sigma (a_i - a_j)^T, symmetric with zero diagonal
    diff = head.weights[:, None, :] - head.weights[None, :, :]
    return np.einsum("ijk,k->ij", diff * diff, sigma.variances)


def robust_probs(head: ClassifierHead, z, sigma: DiagCovariance) -> np.ndarray:
    """Prediction under Gaussian vicinal perturbation of the feature.

    Equals softmax of the logits shifted by half the per-class quadratic
    forms: ``softmax(weights @ z + biases + q/2)`` with
    ``q_i = a_i Sigma a_i^T``. Reduces to the plain softmax at Sigma = 0.
    """
    z = _check_feature(head, z)
    _check_sigma(head, sigma)
    return softmax(head.weights @ z + head.biases + 0.5 * _class_quadratic_forms(head, sigma))


class EntropyLoss:
    """Per-sample Shannon entropy of the head's plain softmax prediction."""

    def __init__(self, head: ClassifierHead):
        self.head = head

    def value_and_pullback(self, Z):
        """Losses of the (n, d) feature rows, a pullback returning their
        (n, d) feature gradients ``weights^T [-p * (log p + H)]``, and the
        (n, C) plain-softmax probabilities, formed from the loss's own
        exponentials and row sums."""
        Z = _feature_rows(self.head, Z)
        L = Z @ self.head.weights.T + self.head.biases
        shifted = L - L.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        row_sums = e.sum(axis=-1, keepdims=True)
        logp = shifted - np.log(row_sums)  # log_softmax_rows(L), bit for bit
        p = np.exp(logp)
        h = -(p * logp).sum(axis=-1)
        e /= row_sums  # softmax_rows(L), bit for bit
        return h, lambda: (-p * (logp + h[..., None])) @ self.head.weights, e


# Rows holding an inner sum S below _S_UNDERFLOW are recomputed in the pair
# form, in (r, C, C) chunks of at most _PAIR_CHUNK elements (or one row).
_S_UNDERFLOW = 1e-280
_PAIR_CHUNK = 1 << 18


class AugmentedEntropyLoss:
    """Per-sample augmented entropy under one fixed vicinal covariance.

    L = sum_j pbar_j * log sum_i exp(t_ij), where pbar is the robust
    prediction and t_ij = (a_i - a_j)·z + (b_i - b_j) + q_ij/2 with
    q_ij = (a_i - a_j) Sigma (a_i - a_j)^T. The i = j term contributes
    exp(0) = 1 to every inner sum, so the result is always >= 0; it
    collapses to the plain entropy at Sigma = 0.

    No (n, C, C) or (C, C, d) array is formed on the finite path. With
    K = A Sigma A^T, h = diag(K)/2 and the robust logits u = Az + b + h,
    q_ij/2 = h_i + h_j - K_ij, so the inner sum of column j is
    exp(K_jj - u_j) * sum_i exp(u_i - K_ij): one (n, C)·(C, C) product
    per batch. Two shifts keep it in range: each row of u by its maximum
    and each column j of -K by kappa_j = max_i(-K_ij), so the constructor
    builds E = exp(-K - kappa) <= 1 once. The i = j term is split off so
    that log inner = log(1 + off-diagonal / diagonal) keeps its relative
    precision near 0 and is >= 0 by construction (exactly 0 at C = 1):

        a_j = (max u - u_j) + (K_jj + kappa_j) >= 0,
        S_off = exp(u - max u) E_off,             E_off = E, diagonal zeroed,
        log inner_j = log(1 + S_off_j exp(a_j)),
        S_j = S_off_j + exp(-a_j).

    The R pbar - pbar term of the gradient is the second product,
    exp(u - max u) * ((pbar / S) E_off^T) - pbar * S_off / S. S_j can
    underflow when the classes that dominate column j lie far from both
    maxima; every row holding an S entry below ``_S_UNDERFLOW`` is
    recomputed, value and gradient, in the literal pair form. Above that
    floor every term lost to underflow is below 1e-28 of S_j.
    """

    def __init__(self, head: ClassifierHead, sigma: DiagCovariance):
        _check_sigma(head, sigma)
        self.head = head
        q = _class_quadratic_forms(head, sigma)
        K = (head.weights * sigma.variances) @ head.weights.T
        np.fill_diagonal(K, q)
        kappa = (-K).max(axis=0)
        self._half_q = 0.5 * q
        self._col_shift = q + kappa
        self._E_off = np.exp(-K - kappa)
        np.fill_diagonal(self._E_off, 0.0)
        self._E_diag = np.exp(-self._col_shift)
        self._half_pair_q = self._half_q[:, None] + self._half_q[None, :] - K

    def value_and_pullback(self, Z):
        """Losses of the (n, d) feature rows, a pullback returning their
        (n, d) feature gradients, and the (n, C) plain-softmax probabilities
        ``softmax_rows(Z @ weights^T + biases)``.

        With g_j the log-inner-sum, r_ij the softmax over i of t_ij, and
        pbar the robust prediction, the gradient is
        ``weights^T [pbar*g - (pbar·g) pbar + R pbar - pbar]``.
        """
        Z = _feature_rows(self.head, Z)
        L = Z @ self.head.weights.T + self.head.biases
        shifted = L + self._half_q
        shifted -= shifted.max(axis=-1, keepdims=True)
        eu = np.exp(shifted)
        pbar = eu / eu.sum(axis=-1, keepdims=True)  # softmax_rows(u), bit for bit
        S_off = eu @ self._E_off
        S = S_off + eu * self._E_diag
        with np.errstate(divide="ignore"):  # S_off = 0 gives -inf, and log inner = 0
            log_ratio = np.log(S_off) - shifted + self._col_shift  # log(off-diagonal / diagonal)
        log_inner = np.maximum(log_ratio, 0.0) + np.log1p(np.exp(-np.abs(log_ratio)))
        exact = (S < _S_UNDERFLOW).any(axis=-1)
        S[exact] = 1.0  # any nonzero value; the pullback takes these rows from the pair form
        log_inner[exact], R_exact = self._pair_form(L[exact], pbar[exact])
        total = (pbar * log_inner).sum(axis=-1, keepdims=True)

        def pullback():
            Rpbar_minus_pbar = eu * ((pbar / S) @ self._E_off.T) - pbar * (S_off / S)
            Rpbar_minus_pbar[exact] = R_exact - pbar[exact]
            coeff = pbar * (log_inner - total) + Rpbar_minus_pbar
            return coeff @ self.head.weights

        return total[..., 0], pullback, softmax_rows(L)

    def _pair_form(self, L, pbar):
        """Log inner sums and R pbar of the given logit rows, in the literal
        pair form."""
        C = L.shape[1]
        log_inner, Rpbar = np.empty_like(L), np.empty_like(L)
        chunk = max(1, _PAIR_CHUNK // (C * C))
        for lo in range(0, L.shape[0], chunk):
            part = slice(lo, lo + chunk)
            T = L[part, :, None] - L[part, None, :] + self._half_pair_q
            m = T.max(axis=1, keepdims=True)
            E = np.exp(T - m)
            inner = E.sum(axis=1, keepdims=True)
            log_inner[part] = (m + np.log(inner))[:, 0, :]
            Rpbar[part] = np.einsum("nij,nj->ni", E / inner, pbar[part])
        return log_inner, Rpbar


def augmented_entropy(head: ClassifierHead, z, sigma: DiagCovariance) -> float:
    """Closed-form upper bound on the expected entropy under vicinal noise
    (see ``AugmentedEntropyLoss``), for one feature."""
    z = _check_feature(head, z)
    return float(AugmentedEntropyLoss(head, sigma).value_and_pullback(z[None, :])[0][0])


def augmented_entropy_decomposed(head: ClassifierHead, z, sigma: DiagCovariance) -> float:
    """Same bound written as sum_j pbar_j * log sum_i (p_i / p_j) * w_ij.

    Here p is the plain softmax and w_ij = exp(q_ij / 2) is the class-pair
    weight. Evaluated literally through probability ratios, as an
    independent route for cross-checking the direct form; agrees with
    ``augmented_entropy`` to within 1e-9 on finite inputs.
    """
    z = _check_feature(head, z)
    _check_sigma(head, sigma)
    p = softmax(logits(head, z))
    w = np.exp(0.5 * _pair_quadratic_forms(head, sigma))
    inner = (p[:, None] / p[None, :] * w).sum(axis=0)
    pbar = robust_probs(head, z, sigma)
    return float(pbar @ np.log(inner))


def class_pair_weight(head: ClassifierHead, i: int, j: int, sigma: DiagCovariance) -> float:
    """The factor exp(q_ij / 2) inflating the loss for a confusable class pair.

    Always >= 1 for a valid (PSD diagonal) covariance; equals 1 iff i = j,
    the prototypes coincide, or the covariance is zero along their difference.
    """
    _check_sigma(head, sigma)
    C = head.n_classes
    if not (0 <= i < C):
        raise IndexError(f"class index i={i} out of range for C={C}")
    if not (0 <= j < C):
        raise IndexError(f"class index j={j} out of range for C={C}")
    diff = head.weights[i] - head.weights[j]
    return float(np.exp(0.5 * (diff * diff) @ sigma.variances))


def grad_augmented_entropy_wrt_feature(head: ClassifierHead, z, sigma: DiagCovariance) -> np.ndarray:
    """Exact gradient of ``augmented_entropy`` with respect to the feature."""
    z = _check_feature(head, z)
    return AugmentedEntropyLoss(head, sigma).value_and_pullback(z[None, :])[1]()[0]


def grad_entropy_wrt_feature(head: ClassifierHead, z) -> np.ndarray:
    """Gradient of the plain softmax entropy with respect to the feature."""
    z = _check_feature(head, z)
    return EntropyLoss(head).value_and_pullback(z[None, :])[1]()[0]
