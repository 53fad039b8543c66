"""Linear-chain CRF over label sequences: scoring, one forward-backward
recursion (marginals and log Z, from which the NLL loss and its gradients
come) and Viterbi decoding.  All computation stays in log-space.

The parameters are a plain dict, the one ``crf_init`` returns and
``crf_loss_and_gradients`` returns its gradients in: ``transitions`` (K, K),
the score of label i -> label j, and the ``start_scores`` and
``end_scores`` (K,) of the first and last labels.
"""

from __future__ import annotations

import numpy as np

from . import nn


def crf_init(n_labels: int) -> dict:
    """Zero-initialized parameters (uniform chain distribution)."""
    return {"transitions": np.zeros((n_labels, n_labels)),
            "start_scores": np.zeros(n_labels), "end_scores": np.zeros(n_labels)}


def _logsumexp(a, axis):
    # the ufunc reductions themselves: np.max and np.sum dispatch to them
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    return m.squeeze(axis) + np.log(np.add.reduce(np.exp(a - m), axis=axis))


def _check_labels(labels, T: int, K: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (T,):
        raise ValueError(f"expected {T} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= K):
        raise ValueError(f"label index out of range [0, {K}) in {labels}")
    return labels


def sequence_score(emissions: np.ndarray, params: dict, labels) -> float:
    """start[y1] + sum_t emissions[t, y_t] + sum_t trans[y_t, y_t+1] + end[y_T]."""
    emissions = np.asarray(emissions, dtype=np.float64)
    T, K = emissions.shape
    labels = _check_labels(labels, T, K)
    score = params["start_scores"][labels[0]] + params["end_scores"][labels[-1]]
    score += emissions[np.arange(T), labels].sum()
    score += params["transitions"][labels[:-1], labels[1:]].sum()
    return float(score)


def log_partition(emissions: np.ndarray, params: dict) -> float:
    """log sum over all K^T labelings of exp(sequence_score): forward_backward's log Z."""
    return forward_backward(emissions, params)[2]


def viterbi_decode(emissions: np.ndarray, params: dict, layout=None):
    """Highest-scoring labeling and its score; ties break toward lower indices.

    Without a layout ``emissions`` is one sequence (T, K) and the result is
    its labels as a list and its score as a float.  With an
    ``nn.PackedLayout`` the rows are those of every sequence it describes,
    one after another, and all of them are decoded in one pass over the
    packed steps: the result is the (N,) int64 labels in the same row order.
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    single = layout is None
    if single:
        layout = nn.pack_sequences([emissions.shape[0]])
    batch_sizes = layout.batch_sizes.tolist()
    ends = np.cumsum(batch_sizes).tolist()
    packed = emissions[layout.fwd]
    K = packed.shape[1]
    # row i of ``score`` is the i-th longest sequence; one that has ended
    # keeps its last step's scores past the running ones
    score = params["start_scores"] + packed[:batch_sizes[0]]
    backptr = np.zeros(packed.shape, dtype=np.int64)
    for t in range(1, len(batch_sizes)):
        b, rows = batch_sizes[t], slice(ends[t - 1], ends[t])
        cand = score[:b, :, None] + params["transitions"]  # (sequence, from, to)
        backptr[rows] = np.argmax(cand, axis=1)  # argmax picks the lowest index on ties
        score[:b] = np.take_along_axis(cand, backptr[rows][:, None, :], axis=1)[:, 0] + packed[rows]
    score = score + params["end_scores"]
    best = np.argmax(score, axis=1)
    labels = np.empty(packed.shape[0], dtype=np.int64)
    for t in range(len(batch_sizes) - 1, -1, -1):
        b, start = batch_sizes[t], ends[t] - batch_sizes[t]
        labels[start:ends[t]] = best[:b]
        best[:b] = backptr[start + np.arange(b), best[:b]]
    out = np.empty_like(labels)
    out[layout.fwd] = labels
    if single:
        return out.tolist(), float(score[0, out[-1]])  # out[-1]: its best last label
    return out


def forward_backward(emissions: np.ndarray, params: dict):
    """Node marginals P(y_t = k) (T, K) and edge marginals
    P(y_t = i, y_t+1 = j) (T-1, K, K)."""
    emissions = np.asarray(emissions, dtype=np.float64)
    T, K = emissions.shape
    trans = params["transitions"]
    alpha = np.zeros((T, K))
    alpha[0] = params["start_scores"] + emissions[0]
    for t in range(1, T):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + trans, axis=0) + emissions[t]
    beta = np.zeros((T, K))
    beta[-1] = params["end_scores"]
    scores = trans + emissions[1:, None, :]  # (T-1, from, to)
    for t in range(T - 2, -1, -1):
        beta[t] = _logsumexp(scores[t] + beta[t + 1], axis=1)
    log_z = float(_logsumexp(alpha[-1] + params["end_scores"], axis=0))
    node = np.exp(alpha + beta - log_z)
    # keep the order of the sums: the marginals' bits, and the golden files, depend on it
    edge = np.exp(alpha[:-1, :, None] + trans + emissions[1:, None, :]
                  + beta[1:, None, :] - log_z)
    return node, edge, log_z


def crf_loss_and_gradients(emissions: np.ndarray, params: dict, gold_labels):
    """Negative log-likelihood of the gold labeling (always >= 0) and its
    gradients from one forward-backward pass; returns (loss, d_emissions,
    d_params).

    The loss is log_z - sequence_score with the log_z forward_backward
    returns.  d/d emission[t, k] = P(y_t = k) - 1[gold_t = k];
    transition/start/end gradients are expected counts minus gold indicators.
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
