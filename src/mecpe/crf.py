"""Linear-chain CRF over label sequences: scoring, log-partition via the
forward recursion, NLL loss with forward-backward gradients, and Viterbi
decoding.  All computation stays in log-space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CRFParams:
    """Transition matrix (score of label i -> label j) plus start/end scores."""

    transitions: np.ndarray  # (K, K)
    start_scores: np.ndarray  # (K,)
    end_scores: np.ndarray  # (K,)

    @property
    def n_labels(self) -> int:
        return self.start_scores.shape[0]


def crf_init(n_labels: int) -> CRFParams:
    """Zero-initialized parameters (uniform chain distribution)."""
    return CRFParams(
        transitions=np.zeros((n_labels, n_labels)),
        start_scores=np.zeros(n_labels),
        end_scores=np.zeros(n_labels),
    )


def _logsumexp(a, axis=None):
    a = np.asarray(a, dtype=np.float64)
    if axis is None:
        m = float(np.max(a))
        return m + float(np.log(np.sum(np.exp(a - m))))
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _check_labels(labels, T: int, K: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (T,):
        raise ValueError(f"expected {T} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= K):
        raise ValueError(f"label index out of range [0, {K}) in {labels}")
    return labels


def sequence_score(emissions: np.ndarray, params: CRFParams, labels) -> float:
    """start[y1] + sum_t emissions[t, y_t] + sum_t trans[y_t, y_t+1] + end[y_T]."""
    emissions = np.asarray(emissions, dtype=np.float64)
    T, K = emissions.shape
    labels = _check_labels(labels, T, K)
    score = params.start_scores[labels[0]] + params.end_scores[labels[-1]]
    score += emissions[np.arange(T), labels].sum()
    score += params.transitions[labels[:-1], labels[1:]].sum()
    return float(score)


def log_partition(emissions: np.ndarray, params: CRFParams) -> float:
    """log sum over all K^T labelings of exp(sequence_score), by forward recursion."""
    emissions = np.asarray(emissions, dtype=np.float64)
    alpha = params.start_scores + emissions[0]
    for t in range(1, emissions.shape[0]):
        alpha = _logsumexp(alpha[:, None] + params.transitions, axis=0) + emissions[t]
    return float(_logsumexp(alpha + params.end_scores))


def crf_nll(emissions: np.ndarray, params: CRFParams, gold_labels) -> float:
    """Negative log-likelihood of the gold labeling; always >= 0."""
    return log_partition(emissions, params) - sequence_score(emissions, params, gold_labels)


def viterbi_decode(emissions: np.ndarray, params: CRFParams):
    """Highest-scoring labeling and its score; ties break toward lower indices."""
    emissions = np.asarray(emissions, dtype=np.float64)
    T, K = emissions.shape
    score = params.start_scores + emissions[0]
    backptr = np.zeros((T, K), dtype=np.int64)
    for t in range(1, T):
        cand = score[:, None] + params.transitions  # (from, to)
        backptr[t] = np.argmax(cand, axis=0)  # argmax picks the lowest index on ties
        score = cand[backptr[t], np.arange(K)] + emissions[t]
    score = score + params.end_scores
    best = int(np.argmax(score))
    labels = [best]
    for t in range(T - 1, 0, -1):
        best = int(backptr[t, best])
        labels.append(best)
    labels.reverse()
    return labels, float(score[labels[-1]])


def forward_backward(emissions: np.ndarray, params: CRFParams):
    """Node marginals P(y_t = k) (T, K) and edge marginals
    P(y_t = i, y_t+1 = j) (T-1, K, K)."""
    emissions = np.asarray(emissions, dtype=np.float64)
    T, K = emissions.shape
    alpha = np.zeros((T, K))
    alpha[0] = params.start_scores + emissions[0]
    for t in range(1, T):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + params.transitions, axis=0) + emissions[t]
    beta = np.zeros((T, K))
    beta[-1] = params.end_scores
    for t in range(T - 2, -1, -1):
        beta[t] = _logsumexp(
            params.transitions + emissions[t + 1] + beta[t + 1], axis=1
        )
    log_z = float(_logsumexp(alpha[-1] + params.end_scores))
    node = np.exp(alpha + beta - log_z)
    edge = np.zeros((max(T - 1, 0), K, K))
    for t in range(T - 1):
        edge[t] = np.exp(
            alpha[t][:, None] + params.transitions + emissions[t + 1] + beta[t + 1] - log_z
        )
    return node, edge, log_z


def marginal_argmax_decode(emissions: np.ndarray, params: CRFParams) -> list[int]:
    """Per-step argmax of node marginals (alternative to Viterbi decoding)."""
    node, _, _ = forward_backward(emissions, params)
    return [int(k) for k in np.argmax(node, axis=1)]


def crf_loss_and_gradients(emissions: np.ndarray, params: CRFParams, gold_labels):
    """crf_nll and its gradients from one forward-backward pass; returns
    (loss, d_emissions, d_params).

    The loss is log_z - sequence_score with the log_z forward_backward
    returns, bit for bit the log_partition value.  d/d emission[t, k] =
    P(y_t = k) - 1[gold_t = k]; transition/start/end gradients are expected
    counts minus gold indicators.
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    T, K = emissions.shape
    gold = _check_labels(gold_labels, T, K)
    node, edge, log_z = forward_backward(emissions, params)
    loss = log_z - sequence_score(emissions, params, gold)

    d_emissions = node.copy()
    d_emissions[np.arange(T), gold] -= 1.0

    d_trans = edge.sum(axis=0)
    np.add.at(d_trans, (gold[:-1], gold[1:]), -1.0)

    d_start = node[0].copy()
    d_start[gold[0]] -= 1.0
    d_end = node[-1].copy()
    d_end[gold[-1]] -= 1.0
    d_params = {"transitions": d_trans, "start_scores": d_start, "end_scores": d_end}
    return loss, d_emissions, d_params


def crf_gradients(emissions: np.ndarray, params: CRFParams, gold_labels):
    """Gradients of crf_nll w.r.t. emissions and parameters: (d_emissions, d_params)."""
    _, d_emissions, d_params = crf_loss_and_gradients(emissions, params, gold_labels)
    return d_emissions, d_params
