"""Trainable-layer substrate: dense layer, stacked BiLSTM, losses, AdamW,
warmup-linear schedule, dropout and finite-difference gradient checking.

Everything is float64 numpy with the backward pass written out next to each
forward op; parameters live in flat ``dict[str, np.ndarray]`` trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# activations


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(logits, axis=-1):
    """Probability vector via max-subtracted exponentiation."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits, axis=-1):
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# dense layer


@dataclass
class DenseParams:
    weight: np.ndarray  # (d_in, d_out)
    bias: np.ndarray    # (d_out,)


def dense_init(d_in: int, d_out: int, rng: np.random.Generator) -> DenseParams:
    bound = 1.0 / np.sqrt(d_in)
    return DenseParams(
        weight=rng.uniform(-bound, bound, size=(d_in, d_out)),
        bias=np.zeros(d_out),
    )


def dense_forward(params: DenseParams, x: np.ndarray) -> np.ndarray:
    """x @ W + b for a single vector or a row-batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.weight.shape[0]:
        raise ValueError(
            f"dense input width {x.shape[-1]} != expected {params.weight.shape[0]}"
        )
    return x @ params.weight + params.bias


def dense_backward(params: DenseParams, x: np.ndarray, dout: np.ndarray):
    """Returns (dx, dW, db) for dense_forward at input x."""
    x2 = np.atleast_2d(x)
    d2 = np.atleast_2d(dout)
    dW = x2.T @ d2
    db = d2.sum(axis=0)
    dx = d2 @ params.weight.T
    return dx.reshape(np.shape(x)), dW, db


# ---------------------------------------------------------------------------
# losses


def weighted_cross_entropy(logits, target: int, class_weights) -> float:
    """-w_target * log softmax(logits)[target]."""
    return float(-np.asarray(class_weights)[target] * log_softmax(logits)[target])


def weighted_ce_batch(logits, targets, class_weights):
    """Mean weighted CE over rows plus the gradient w.r.t. the logits."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.int64)
    w = np.asarray(class_weights, dtype=np.float64)[targets]  # (B,)
    logp = log_softmax(logits, axis=1)
    n = logits.shape[0]
    loss = float(-(w * logp[np.arange(n), targets]).mean())
    dlogits = softmax(logits, axis=1)
    dlogits[np.arange(n), targets] -= 1.0
    dlogits *= w[:, None] / n
    return loss, dlogits


def binary_cross_entropy(logit, target) -> float:
    """Numerically stable BCE on a raw logit: max(z,0) - z*t + log(1+exp(-|z|))."""
    z = float(logit)
    t = float(target)
    return max(z, 0.0) - z * t + float(np.log1p(np.exp(-abs(z))))


def bce_batch(logits, targets):
    """Mean BCE over a batch of logits plus the gradient w.r.t. the logits."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    losses = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    dz = (sigmoid(z) - t) / z.size
    return float(losses.mean()), dz


# ---------------------------------------------------------------------------
# dropout


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)


# ---------------------------------------------------------------------------
# stacked bidirectional LSTM

_GATES = 4  # i, f, g, o


@dataclass(frozen=True)
class BiRNNStack:
    """Shape of a stacked BiLSTM: output width per step is 2*hidden_size."""

    input_size: int
    hidden_size: int
    n_layers: int
    inter_layer_dropout: float = 0.0


def _orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def lstm_init(input_size: int, hidden_size: int, rng: np.random.Generator) -> dict:
    """One direction of one layer: uniform fan-in input weights, orthogonal
    recurrent weights, forget-gate bias +1."""
    bound = 1.0 / np.sqrt(input_size)
    W = rng.uniform(-bound, bound, size=(input_size, _GATES * hidden_size))
    U = np.concatenate([_orthogonal(hidden_size, rng) for _ in range(_GATES)], axis=1)
    b = np.zeros(_GATES * hidden_size)
    b[hidden_size: 2 * hidden_size] = 1.0
    return {"W": W, "U": U, "b": b}


def lstm_forward(W, U, b, x):
    """Run an LSTM over x (T, input_size); returns (h_seq (T, H), cache).

    The input projection x @ W + b of all T steps is one GEMM before the
    recurrence, so a step costs one h @ U and one tanh over the (4H,) gate
    slab: gate = tanh(scale * z) * scale + (1 - scale) per column, which is
    sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 for i, f, o and tanh(z) for g.

    The cache holds ``x``, the activated gates ``gates`` (T, 4H) in i|f|g|o
    order and ``h``, ``c`` (T+1, H) whose row 0 is the zero initial state, so
    row t is the state entering step t.  ``h_seq`` is a view of ``h[1:]``.
    """
    T = x.shape[0]
    H = U.shape[0]
    scale = np.full(_GATES * H, 0.5)
    scale[2 * H: 3 * H] = 1.0
    shift = 1.0 - scale
    gates = x @ W
    gates += b
    h = np.zeros((T + 1, H))
    c = np.zeros((T + 1, H))
    for t in range(T):
        z = gates[t]
        z += h[t] @ U
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        np.multiply(z[H: 2 * H], c[t], out=c[t + 1])
        c[t + 1] += z[:H] * z[2 * H: 3 * H]
        np.multiply(z[3 * H:], np.tanh(c[t + 1]), out=h[t + 1])
    return h[1:], {"x": x, "gates": gates, "h": h, "c": c}


def lstm_backward(W, U, b, cache, dh_seq):
    """BPTT through one direction; returns (dx, dW, dU, db).

    Every factor of dz that does not depend on the incoming gradient is
    computed for all steps up front, so the loop carries only dh_next and
    dc_next and writes dz into a (T, 4H) slab dZ.  The weight and input
    gradients are then four GEMMs: dW = x^T dZ, dU = h_prev^T dZ,
    db = sum_t dZ and dx = dZ W^T.
    """
    x, gates, h, c = cache["x"], cache["gates"], cache["h"], cache["c"]
    T, H = dh_seq.shape
    i, f, g, o = (gates[:, k * H: (k + 1) * H] for k in range(_GATES))
    tanh_c = np.tanh(c[1:])
    dc_from_dh = o * (1.0 - tanh_c ** 2)
    # dz = dZ[t] * [dc | dc | dc | dh]; dZ first holds the other factors
    dZ = np.empty((T, _GATES * H))
    dZ_gates = dZ.reshape(T, _GATES, H)  # view of dZ, one row per gate
    dZ_gates[:, 0] = g * i * (1.0 - i)
    dZ_gates[:, 1] = c[:-1] * f * (1.0 - f)
    dZ_gates[:, 2] = i * (1.0 - g ** 2)
    dZ_gates[:, 3] = tanh_c * o * (1.0 - o)
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = dh_seq[t] + dh_next
        dc = dh * dc_from_dh[t]
        dc += dc_next
        dZ_gates[t, :3] *= dc
        dZ_gates[t, 3] *= dh
        dh_next = dZ[t] @ U.T
        dc_next = dc * f[t]
    return dZ @ W.T, x.T @ dZ, h[:-1].T @ dZ, dZ.sum(axis=0)


def birnn_init(stack: BiRNNStack, rng: np.random.Generator) -> dict:
    """Flat parameter dict keyed l{layer}_{fwd,bwd}_{W,U,b}."""
    params = {}
    for layer in range(stack.n_layers):
        in_size = stack.input_size if layer == 0 else 2 * stack.hidden_size
        for direction in ("fwd", "bwd"):
            cell = lstm_init(in_size, stack.hidden_size, rng)
            for k, v in cell.items():
                params[f"l{layer}_{direction}_{k}"] = v
    return params


def birnn_shapes(stack: BiRNNStack) -> dict:
    """Name -> shape of each parameter ``birnn_init`` makes, in its order,
    without drawing any."""
    gates = _GATES * stack.hidden_size
    shapes = {}
    for layer in range(stack.n_layers):
        in_size = stack.input_size if layer == 0 else 2 * stack.hidden_size
        for direction in ("fwd", "bwd"):
            cell = f"l{layer}_{direction}_"
            shapes.update({cell + "W": (in_size, gates), cell + "U": (stack.hidden_size, gates),
                           cell + "b": (gates,)})
    return shapes


def birnn_forward(
    stack: BiRNNStack,
    params: dict,
    sequence: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """Top-layer per-step [h_fwd || h_bwd] outputs; returns (out (T, 2H), cache).

    Inter-layer dropout is applied to the inputs of layers 2..L while training.
    """
    x = np.asarray(sequence, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"birnn_forward expects a (T, D) sequence, got {x.shape}")
    if x.shape[1] != stack.input_size:
        raise ValueError(f"input width {x.shape[1]} != stack input size {stack.input_size}")
    caches = []
    for layer in range(stack.n_layers):
        mask = None
        if layer > 0 and training and stack.inter_layer_dropout > 0.0:
            if rng is None:
                raise ValueError("training birnn_forward with dropout needs an rng")
            mask = dropout_mask(x.shape, stack.inter_layer_dropout, rng)
            x = x * mask
        h_fwd, cache_fwd = lstm_forward(
            params[f"l{layer}_fwd_W"], params[f"l{layer}_fwd_U"], params[f"l{layer}_fwd_b"], x
        )
        h_bwd_rev, cache_bwd = lstm_forward(
            params[f"l{layer}_bwd_W"], params[f"l{layer}_bwd_U"], params[f"l{layer}_bwd_b"],
            x[::-1],
        )
        x = np.concatenate([h_fwd, h_bwd_rev[::-1]], axis=1)
        caches.append({"fwd": cache_fwd, "bwd": cache_bwd, "mask": mask})
    return x, caches


def birnn_backward(stack: BiRNNStack, params: dict, caches: list, dout: np.ndarray):
    """Returns (dx, grads) matching the birnn parameter dict layout."""
    H = stack.hidden_size
    grads = {}
    d = np.asarray(dout, dtype=np.float64)
    for layer in range(stack.n_layers - 1, -1, -1):
        cache = caches[layer]
        dx_fwd, dW, dU, db = lstm_backward(
            params[f"l{layer}_fwd_W"], params[f"l{layer}_fwd_U"], params[f"l{layer}_fwd_b"],
            cache["fwd"], d[:, :H],
        )
        grads[f"l{layer}_fwd_W"] = dW
        grads[f"l{layer}_fwd_U"] = dU
        grads[f"l{layer}_fwd_b"] = db
        dx_bwd_rev, dW, dU, db = lstm_backward(
            params[f"l{layer}_bwd_W"], params[f"l{layer}_bwd_U"], params[f"l{layer}_bwd_b"],
            cache["bwd"], d[:, H:][::-1],
        )
        grads[f"l{layer}_bwd_W"] = dW
        grads[f"l{layer}_bwd_U"] = dU
        grads[f"l{layer}_bwd_b"] = db
        d = dx_fwd + dx_bwd_rev[::-1]
        if cache["mask"] is not None:
            d = d * cache["mask"]
    return d, grads


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass
class AdamWConfig:
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.01


# elements per AdamW block: p, m, v, g and the two scratch buffers of one
# block (6 x 256 KiB) stay in L2 while the step walks a parameter
ADAMW_CHUNK = 32768


class AdamW:
    """Decoupled-weight-decay Adam over a flat parameter dict, in-place.

    A step walks each parameter in blocks of ``ADAMW_CHUNK`` elements and
    writes every intermediate into two preallocated scratch buffers.  All
    gradients are checked first, so a non-finite or misshapen one raises
    before any parameter or moment changes.
    """

    def __init__(self, params: dict[str, np.ndarray], config: AdamWConfig | None = None):
        self.config = config or AdamWConfig()
        self.m = {k: np.zeros(v.shape) for k, v in params.items()}
        self.v = {k: np.zeros(v.shape) for k, v in params.items()}
        self.t = 0
        self._scratch = np.empty((2, ADAMW_CHUNK))

    def step(self, params: dict, grads: dict, lr: float | None = None) -> None:
        cfg = self.config
        if lr is None:
            lr = cfg.lr
        b1, b2 = cfg.betas
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape or not p.flags.c_contiguous:
                raise ValueError(
                    f"parameter {name!r} must be C-contiguous with a gradient of its"
                    f" shape; got {p.shape} and gradient {g.shape}")
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        decay = lr * cfg.weight_decay
        for name, p in params.items():
            # 1-D views (p, m and v are C-contiguous) that the blocks update in place
            p_flat = p.reshape(-1)
            m_flat = self.m[name].reshape(-1)
            v_flat = self.v[name].reshape(-1)
            g_flat = np.ravel(grads[name])
            for start in range(0, p_flat.size, ADAMW_CHUNK):
                block = slice(start, start + ADAMW_CHUNK)
                p_, m, v, g = p_flat[block], m_flat[block], v_flat[block], g_flat[block]
                a, b = self._scratch[0, :p_.size], self._scratch[1, :p_.size]
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
                m *= b1
                np.multiply(g, 1.0 - b1, out=a)
                m += a
                v *= b2
                np.multiply(g, 1.0 - b2, out=a)
                a *= g
                v += a
                # p -= lr wd p;  p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
                np.multiply(p_, decay, out=a)
                p_ -= a
                np.divide(m, bc1, out=a)
                a *= lr
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += cfg.eps
                a /= b
                p_ -= a

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"m/{k}": v for k, v in self.m.items()}
        out.update({f"v/{k}": v for k, v in self.v.items()})
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        self.m = {k[2:]: arrays[k] for k in arrays if k.startswith("m/")}
        self.v = {k[2:]: arrays[k] for k in arrays if k.startswith("v/")}
        self.t = t


@dataclass(frozen=True)
class WarmupSchedule:
    """Linear ramp 0 -> peak over warmup_steps, then linear decay to 0."""

    warmup_steps: int
    total_steps: int
    peak_lr: float

    def __post_init__(self):
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError(
                f"warmup_steps {self.warmup_steps} must be in [0, total_steps"
                f" {self.total_steps}]"
            )
        if self.peak_lr <= 0:
            raise ValueError(f"peak_lr must be positive, got {self.peak_lr}")


def lr_at(schedule: WarmupSchedule, step: int) -> float:
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if step <= schedule.warmup_steps:
        if schedule.warmup_steps == 0:
            return schedule.peak_lr
        return schedule.peak_lr * step / schedule.warmup_steps
    return (
        schedule.peak_lr
        * (schedule.total_steps - step)
        / (schedule.total_steps - schedule.warmup_steps)
    )


# ---------------------------------------------------------------------------
# gradient verification


def gradcheck(
    loss_and_grads,
    params: dict[str, np.ndarray],
    epsilon: float = 1e-5,
    max_entries_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_and_grads(params) -> (loss, grads)`` must be deterministic (dropout
    off).  Relative error per entry is |a-n| / max(|a|, |n|, 1e-8).
    """
    _, grads = loss_and_grads(params)
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        g = np.asarray(grads[name]).reshape(-1)
        indices = range(flat.size)
        if max_entries_per_param is not None and flat.size > max_entries_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            indices = rng.choice(flat.size, size=max_entries_per_param, replace=False)
        for idx in indices:
            orig = flat[idx]
            flat[idx] = orig + epsilon
            up, _ = loss_and_grads(params)
            flat[idx] = orig - epsilon
            down, _ = loss_and_grads(params)
            flat[idx] = orig
            numeric = (up - down) / (2.0 * epsilon)
            analytic = g[idx]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
