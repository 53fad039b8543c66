"""Trainable-layer substrate: dense layer, stacked BiLSTM, losses, AdamW,
warmup-linear schedule, dropout and finite-difference gradient checking.

Everything is numpy with the backward pass written out next to each forward
op; the LSTM kernels and AdamW compute in the parameters' dtype, float64 for
the stage models.  Parameters are plain ``dict[str, np.ndarray]`` trees, and
a layer reads its sizes from the arrays it is given.  For training, ``AdamW``
moves a tree into one flat buffer (``flat_buffer``) whose views the dict then
holds; the gradients and moments are buffers of the same layout, and the
backward passes write the gradients into their views.

A pass draws dropout if and only if it is given an ``rng``.  A forward-only
pass (``birnn_forward`` given a ``PackedLayout``) runs many sequences at
once, batch-invariant as ``lstm_forward`` states; a pass that keeps its
caches for a backward runs one sequence through 1-D steps.

A BiLSTM layer runs its two directions on two threads, the caller and one
helper thread, when one step of the pass has enough GIL-free work: U.size
times the pass's mean rows per step (``LSTM_THREADS_MIN``).  Every
paper-shape pass does, and so does a desk-width forward-only pass over enough
conversations (predict, the pairing stage's inputs); a desk training step
does not.  ``birnn_init`` follows the one-sequence rule (H >= 256): the
helper factors the orthogonal recurrent blocks while the caller draws.  An
AdamW step splits its update's blocks from ``ADAMW_THREADS_MIN`` parameters,
which every desk and paper-shape emotion and cause model has.  From
``NPZ_THREADS_MIN`` bytes, ``training.StageTrainer.save`` has the helper
write ``state.npz`` while the caller writes the model bundles, and
``checkpoint.read_npz`` has it compute each member's CRC-32 while the caller
reads the next; neither desk files nor desk saves reach the rule.  All five
hand work over in one place, ``_pair``: it runs two calls on the caller and
the helper, or, below the rules, one after the other.
The rules were measured with one BLAS thread, which the CLI
sets (``cli.pin_blas``).  numpy releases the GIL inside BLAS, LAPACK and
ufunc loops over large arrays, and zlib's CRC-32 and file writes release it
over large buffers, so the two overlap.  Each thread runs the ops
the serial code runs, on arrays the other does not touch, so results are
bitwise the same either way.
"""

from __future__ import annotations

import functools
import os
import queue
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from concurrent import futures


# ---------------------------------------------------------------------------
# the helper thread

# A layer's two directions run concurrently iff U.size * rows >= 2**18 * steps:
# U.size = H * 4H times the pass's mean rows per step, the GIL-free work of one
# step.  For one sequence (every training pass) that is H >= 256: a 10-step
# sequence ran x0.72-0.82 at H 48, x0.94 at H 96 and x1.8 (forward) /
# x2.0-2.3 (backward) at H 256 on two threads.  Packed 4-layer forward-only
# passes cross over near the rule (one BLAS thread, medians of 15-25): at
# H 48, where it pairs from 28.4 rows per step, x0.57-0.79 below 20, x0.88-1.28
# at 20-33 and x0.97-1.46 from 36 (x1.18-1.31 from 50); at H 96, from 7.1,
# x0.81-0.92 at 5-6, x0.91-1.29 at 7-10 and x1.07-1.49 from 13.  Over 1,344
# paper-shape conversations, run per row-capped group, the pairing stage's
# inputs took 7.2 -> 4.3 s and predict 7.4 -> 4.4 s
# (scripts/probe_forward_memory.py, medians of 3 runs).  Both directions then
# hold their states at once: desk_predict's peak RSS rose ~4 MB (BENCH_21.json).
# birnn_init pairs by the one-sequence rule.  A 4-layer init (32 H x H QR
# factorisations; medians of 15-41, three processes) ran x0.94-1.04 at H 48,
# x1.02-1.26 at H 64, x1.26-1.69 at H 96-128 and x1.54-1.81 at H 192-256
# on two threads; no profile uses the sizes between, so there is one rule.
LSTM_THREADS_MIN = 2 ** 18
# An AdamW step is split in two from 2**17 parameters, four ADAMW_CHUNK
# blocks: the desk emotion (198,886) and cause (142,561) models pair, the desk
# pairing model (1,025) and the small test models do not.  A step timed alone
# (medians of 300, one BLAS thread, 2-CPU machine) ran x1.13-1.18 at 3 blocks,
# x1.33-1.50 at 4 and x1.15-1.45 at 5-7 on two threads; 2 blocks read
# x1.32-1.45 here but x0.90 in an earlier reading, so the rule starts at 4.
# The desk emotion step took 1.66 -> 1.22 ms; BENCH_28.json has the benchmark.
ADAMW_THREADS_MIN = 2 ** 17
# From 2**22 bytes the helper computes an npz file's CRC-32s while the caller
# reads its members (checkpoint.read_npz), and writes a trainer's state.npz
# while the caller writes the bundles (training.StageTrainer.save).  Emotion
# bundles at H 48-256 (1.6-42.6 MB, states twice that), medians of 41 reads
# or saves, one BLAS thread, 2-CPU machine: reads ran x0.96-1.08 at 1.6 MB,
# x1.03-1.30 at 2.8 MB, x1.17-1.26 at 3.5-6.1 MB and x1.9 at 42.6 MB on two
# threads; saves x1.08-1.11 at a 3.2 MB state, x1.15-1.29 at 4.3-5.6 MB and
# x1.4-1.55 from 12 MB.  Desk files stay serial: a paired desk save slowed
# the rest of the process (BENCH_29.json), which timing the save alone misses.
NPZ_THREADS_MIN = 2 ** 22

_helper_pool: futures.ThreadPoolExecutor | bool | None = None  # False: one CPU
_helper_lock = threading.Lock()  # callers on many threads make one pool between them


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper() -> futures.ThreadPoolExecutor | None:
    """The helper thread's executor, made on first use; None when the process
    may use only one CPU."""
    global _helper_pool
    with _helper_lock:
        if _helper_pool is None:
            if _usable_cpus() >= 2:
                from concurrent import futures  # only a process that makes the helper pays for it

                _helper_pool = futures.ThreadPoolExecutor(max_workers=1,
                                                          thread_name_prefix="mecpe-nn")
            else:
                _helper_pool = False
        return _helper_pool or None


def _pair(pool: futures.ThreadPoolExecutor | None, first, second):
    """Yields first() and second().  Without a pool each is called only once
    the result before it is taken.  With one, second() runs on the helper
    thread while first() runs here, and both are yielded once both have
    finished; if the helper has not started second() by the time first()
    returns (its core is busy elsewhere), the caller runs it itself.  An
    exception raised by either reaches the caller."""
    if pool is None:
        yield first()
        yield second()
        return
    future = pool.submit(second)
    try:
        result = first()
    except BaseException:
        if not future.cancel():
            future.exception()  # waits for the helper; its own exception is dropped
        raise
    yield from (result, second() if future.cancel() else future.result())


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


def dense_init(d_in: int, d_out: int, rng: np.random.Generator):
    """(W (d_in, d_out), b (d_out,)): W uniform in +-1/sqrt(d_in), b zero."""
    bound = 1.0 / np.sqrt(d_in)
    return rng.uniform(-bound, bound, size=(d_in, d_out)), np.zeros(d_out)


def dense_forward(W: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x @ W + b for a single vector or a row-batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != W.shape[0]:
        raise ValueError(
            f"dense input width {x.shape[-1]} != expected {W.shape[0]}"
        )
    return x @ W + b


def rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as one (1, K) @ (K, N) product per row of a, so that a row's
    result does not depend on how many rows share the call.  One BLAS call
    over all rows picks its kernel, and so its rounding, by the row and column
    counts: a product with one row or one column is a matrix-vector product,
    and scipy-openblas 0.3.31 rounds the rows of a (M, 512) @ (512, 7)
    product otherwise for M below 280 than above.  The stage heads are
    narrow, so a call per row costs little."""
    return np.matmul(np.ascontiguousarray(a)[:, None, :], b)[:, 0]


def dense_backward(W: np.ndarray, x: np.ndarray, dout: np.ndarray, out=None):
    """Returns (dx, dW, db) for dense_forward at input x; dW and db are
    written into ``out`` = (dW, db) when it is given."""
    x2 = np.atleast_2d(x)
    d2 = np.atleast_2d(dout)
    dW, db = out or (None, None)
    dx = d2 @ W.T
    return dx.reshape(np.shape(x)), np.matmul(x2.T, d2, out=dW), d2.sum(axis=0, out=db)


# ---------------------------------------------------------------------------
# losses


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


def lstm_init(input_size: int, hidden_size: int, rng: np.random.Generator) -> dict:
    """One direction of one layer: uniform fan-in input weights, orthogonal
    recurrent weights, forget-gate bias +1.  Draws, in order, W as one
    uniform draw and U's four gate blocks as one (4, H, H) standard-normal
    draw, the same stream as four (H, H) draws; each block is the Q of that
    block's QR with its columns' signs set by R's diagonal.  The one-cell
    case of ``birnn_init``."""
    return _init_cells([input_size], hidden_size, rng)[0]


def _init_cells(input_sizes, hidden_size: int, rng: np.random.Generator) -> list[dict]:
    """One ``lstm_init`` cell per input size, drawn on the caller one cell
    after another.  The QR factorisations go on a queue as the caller draws;
    from U.size >= ``LSTM_THREADS_MIN`` (H >= 256) the helper thread takes
    them from it while the caller draws on.  The caller takes them too
    whenever more than one cell's blocks wait, so about two cells' Gaussians
    are alive at most, and takes the rest once it has drawn every cell.  Each
    factorisation writes into its column block of its cell's U."""
    H = hidden_size
    cells = []
    drawn = queue.SimpleQueue()  # (Gaussian block, U column block), then None

    def factor(block, out):
        q, r = np.linalg.qr(block)
        np.multiply(q, np.sign(np.diag(r)), out=out)

    def factors():
        for block, out in iter(drawn.get, None):
            factor(block, out)
        drawn.put(None)  # ends the other thread's loop too

    def draws():
        try:
            for input_size in input_sizes:
                bound = 1.0 / np.sqrt(input_size)
                cell = {"W": rng.uniform(-bound, bound, size=(input_size, _GATES * H)),
                        "U": np.empty((H, _GATES * H)), "b": np.zeros(_GATES * H)}
                cell["b"][H: 2 * H] = 1.0
                cells.append(cell)
                for k, block in enumerate(rng.standard_normal((_GATES, H, H))):
                    drawn.put((block, cell["U"][:, k * H: (k + 1) * H]))
                while drawn.qsize() > _GATES:
                    try:
                        factor(*drawn.get_nowait())
                    except queue.Empty:  # the helper took the rest
                        break
        finally:
            drawn.put(None)  # the helper's loop ends however the draws do
        factors()

    pool = _helper() if H * _GATES * H >= LSTM_THREADS_MIN else None
    for _ in _pair(pool, draws, factors):
        pass
    return cells


@dataclass(frozen=True)
class PackedLayout:
    """Row layout of B sequences for one packed pass of ``lstm_forward``.

    The caller holds the sequences' rows one after another: sequence k is rows
    ``starts[k]:starts[k] + lengths[k]``.  The packed order sorts the sequences
    by length, longest first (ties keep the caller's order), and lists step 0
    of every sequence, then step 1 of every sequence longer than 1, and so on.
    Step t is thus ``batch_sizes[t]`` consecutive packed rows, and the
    sequences still running at step t are the first ``batch_sizes[t]`` of those
    running at step t - 1.  Packed row i is the caller's row ``fwd[i]``;
    ``bwd[i]`` is the same with each sequence reversed within its own length.
    For one sequence ``fwd`` and ``bwd`` are the slices ``[:]`` and ``[::-1]``,
    so its gathers are views and a training step copies nothing.
    """

    lengths: np.ndarray       # (B,)
    starts: np.ndarray        # (B,)
    batch_sizes: np.ndarray   # (max length,)
    fwd: np.ndarray | slice   # (N,)
    bwd: np.ndarray | slice   # (N,)

    @property
    def n_rows(self) -> int:
        return int(self.lengths.sum())

    def slices(self) -> list[slice]:
        """Each sequence's rows, in the caller's order."""
        return [slice(s, s + n) for s, n in zip(self.starts.tolist(), self.lengths.tolist())]


def pack_sequences(lengths) -> PackedLayout:
    """The ``PackedLayout`` of sequences of these lengths (each at least 1),
    whose rows the caller holds one after another."""
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if lengths.size == 0 or lengths.min() < 1:
        raise ValueError(f"pack_sequences needs one or more lengths >= 1, got {lengths}")
    if lengths.size == 1:
        return PackedLayout(lengths, np.zeros(1, dtype=np.int64),
                            np.ones(lengths[0], dtype=np.int64), slice(None), slice(None, None, -1))
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths.max())
    batch_sizes = (lengths[:, None] > steps).sum(axis=0)
    # packed row i is step t of the sequence in sorted slot i - (rows before step t)
    t = np.repeat(steps, batch_sizes)
    seq = order[np.arange(t.size) - np.repeat(np.cumsum(batch_sizes) - batch_sizes, batch_sizes)]
    first = starts[seq]
    return PackedLayout(lengths, starts, batch_sizes, first + t,
                        first + lengths[seq] - 1 - t)


def lstm_forward(W, U, b, x, batch_sizes=None):
    """Run an LSTM over a packed batch x (N, input_size); returns
    (h (N, H), cache) with the rows of h in the packed order of x.

    ``batch_sizes`` is ``PackedLayout.batch_sizes``; None means one sequence
    run for a backward, whose packed order is its step order.  The input
    projection x @ W + b of all N rows is one GEMM before the recurrence, so
    step t costs one (b_t, H) @ (H, 4H) GEMM and one tanh over the (b_t, 4H)
    gate slab: gate = tanh(scale * z) * scale + (1 - scale) per column, which
    is sigmoid(z) = 0.5 * tanh(z / 2) + 0.5 for i, f, o and tanh(z) for g.

    Batch invariance: with ``batch_sizes`` a sequence's rows do not depend
    on which sequences share the pass.  A product with one row would go to
    BLAS as a matrix-vector product, which rounds otherwise than a matrix
    product, so a step with b_t == 1 takes row 0 of a two-row product, as
    does a one-row input projection.  That the rows of a matrix product do
    not depend on its row count is a property of the BLAS, which the tests
    check at the package's shapes; scipy-openblas 0.3.31 breaks it at every
    odd hidden size from 19 to 69 tried: up to 31, where the products were
    probed one by one, rows of the input projection (and at 27, 29 and 31 of
    the recurrent product) move with the row count.  Every forward-only pass
    built on this one (stage models, predict, validation, the pairing stage's
    inputs) holds only as far as this does.  Without
    ``batch_sizes`` each step indexes its row: 1-D views cost less per op,
    and a training step matches no other pass.

    The cache holds ``x``, the activated gates ``gates`` (N, 4H) in i|f|g|o
    order and ``h``, ``c`` (B + N, H): rows 0..B-1 are the zero initial
    states and row B + i is the state after packed row i.  For one sequence
    row t is the state entering step t, the layout ``lstm_backward`` reads.
    The states and gate constants take U's dtype.
    """
    N = x.shape[0]
    H = U.shape[0]
    one = batch_sizes is None
    steps = [1] * N if one else np.asarray(batch_sizes).tolist()
    B = steps[0]
    scale = np.full(_GATES * H, 0.5, dtype=U.dtype)
    scale[2 * H: 3 * H] = 1.0
    shift = 1.0 - scale
    gates = x @ W if one or N > 1 else (np.concatenate([x, x]) @ W)[:1]
    gates += b
    h = np.zeros((B + N, H), dtype=U.dtype)
    c = np.zeros((B + N, H), dtype=U.dtype)
    prev, cur = 0, B  # first state row entering and leaving the step
    for n in steps:
        if one:
            z, h_in, c_in, h_out, c_out = gates[cur - B], h[prev], c[prev], h[cur], c[cur]
            z += h_in @ U
        else:
            z = gates[cur - B: cur - B + n]
            c_in = c[prev: prev + n]
            h_out, c_out = h[cur: cur + n], c[cur: cur + n]
            # prev + 1 <= cur, so the two-row block of a step of one is in h
            z += (h[prev: prev + max(n, 2)] @ U)[:n]
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += shift
        np.multiply(z[..., H: 2 * H], c_in, out=c_out)
        c_out += z[..., :H] * z[..., 2 * H: 3 * H]
        np.multiply(z[..., 3 * H:], np.tanh(c_out), out=h_out)
        prev, cur = cur, cur + n
    return h[B:], {"x": x, "gates": gates, "h": h, "c": c}


def lstm_backward(W, U, b, cache, dh_seq, out=None):
    """BPTT through one direction of one sequence; returns (dx, dW, dU, db),
    with dW, dU and db written into ``out`` = (dW, dU, db) when it is given.

    Every factor of dz that does not depend on the incoming gradient is
    computed for all steps up front, so the loop carries only dh_next and
    dc_next and writes dz into a (T, 4H) slab dZ of U's dtype.  The weight
    and input gradients are then four GEMMs: dW = x^T dZ, dU = h_prev^T dZ,
    db = sum_t dZ and dx = dZ W^T.
    """
    x, gates, h, c = cache["x"], cache["gates"], cache["h"], cache["c"]
    T, H = dh_seq.shape
    i, f, g, o = (gates[:, k * H: (k + 1) * H] for k in range(_GATES))
    tanh_c = np.tanh(c[1:])
    dc_from_dh = o * (1.0 - tanh_c ** 2)
    # dz = dZ[t] * [dc | dc | dc | dh]; dZ first holds the other factors
    dZ = np.empty((T, _GATES * H), dtype=U.dtype)
    dZ_gates = dZ.reshape(T, _GATES, H)  # view of dZ, one row per gate
    dZ_gates[:, 0] = g * i * (1.0 - i)
    dZ_gates[:, 1] = c[:-1] * f * (1.0 - f)
    dZ_gates[:, 2] = i * (1.0 - g ** 2)
    dZ_gates[:, 3] = tanh_c * o * (1.0 - o)
    dh_next = np.zeros(H, dtype=U.dtype)
    dc_next = np.zeros(H, dtype=U.dtype)
    for t in range(T - 1, -1, -1):
        dh = dh_seq[t] + dh_next
        dc = dh * dc_from_dh[t]
        dc += dc_next
        dZ_gates[t, :3] *= dc
        dZ_gates[t, 3] *= dh
        dh_next = dZ[t] @ U.T
        dc_next = dc * f[t]
    dW, dU, db = out or (None, None, None)
    return (dZ @ W.T, np.matmul(x.T, dZ, out=dW), np.matmul(h[:-1].T, dZ, out=dU),
            dZ.sum(axis=0, out=db))


def _cell(params: dict, layer: int, direction: str) -> tuple[np.ndarray, ...]:
    """(W, U, b) of one direction of one layer."""
    cell = f"l{layer}_{direction}_"
    return params[cell + "W"], params[cell + "U"], params[cell + "b"]


def _direction_forward(params: dict, layer: int, direction: str, x: np.ndarray, rows,
                       batch_sizes):
    """``lstm_forward`` of one direction of one layer over the rows ``rows`` of x."""
    return lstm_forward(*_cell(params, layer, direction), x[rows], batch_sizes)


def birnn_init(input_size: int, hidden_size: int, n_layers: int,
               rng: np.random.Generator) -> dict:
    """Flat parameter dict keyed l{layer}_{fwd,bwd}_{W,U,b}, as ``birnn_shapes``
    lists them; each step's output is 2 * hidden_size wide.  The cells take
    their draws from ``rng`` in that order, each cell's as ``lstm_init``
    draws them, so the parameters are the bytes of one ``lstm_init`` per
    cell and the same on one thread or two."""
    shapes = birnn_shapes(input_size, hidden_size, n_layers)
    # a cell's first entry is its W, whose rows are the cell's input width
    names = [name[:-1] for name in shapes if name.endswith("W")]
    cells = _init_cells([shapes[name + "W"][0] for name in names], hidden_size, rng)
    return {name + k: v for name, cell in zip(names, cells) for k, v in cell.items()}


def birnn_shapes(input_size: int, hidden_size: int, n_layers: int) -> dict:
    """Name -> shape of each parameter ``birnn_init`` makes, in its order,
    without drawing any."""
    gates = _GATES * hidden_size
    shapes = {}
    for layer in range(n_layers):
        in_size = input_size if layer == 0 else 2 * hidden_size
        for direction in ("fwd", "bwd"):
            cell = f"l{layer}_{direction}_"
            shapes.update({cell + "W": (in_size, gates), cell + "U": (hidden_size, gates),
                           cell + "b": (gates,)})
    return shapes


def birnn_forward(
    params: dict,
    sequence: np.ndarray,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    layout: PackedLayout | None = None,
):
    """Top-layer per-step [h_fwd || h_bwd] outputs; returns (out (N, 2H), caches).

    The stack's sizes are read from ``params``, a ``birnn_init`` dict: the
    input width and H from ``l0_fwd_W`` and ``l0_fwd_U``, the layer count
    from its length.  ``sequence`` is one sequence (T, D), run for a
    backward: ``caches`` holds what ``birnn_backward`` needs.  With a
    ``layout`` it is the rows of every sequence the layout describes, one
    after another, and the pass is forward-only: each layer runs both
    directions over all of them in one batch-invariant packed pass
    (``lstm_forward``), ``out`` keeps the caller's row order and ``caches`` is
    None, even for one sequence.  Given an ``rng``, inter-layer dropout at
    rate ``dropout`` is applied to the inputs of layers 2..L; without one,
    none is.
    """
    x = np.asarray(sequence, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"birnn_forward expects a (T, D) sequence, got {x.shape}")
    input_size, H = params["l0_fwd_W"].shape[0], params["l0_fwd_U"].shape[0]
    if x.shape[1] != input_size:
        raise ValueError(f"input width {x.shape[1]} != stack input size {input_size}")
    if layout is None:
        caches, batch_sizes, layout = [], None, pack_sequences([x.shape[0]])
    else:
        caches, batch_sizes = None, layout.batch_sizes
    if x.shape[0] != layout.n_rows:
        raise ValueError(f"{x.shape[0]} input rows != {layout.n_rows} rows in the layout")
    steps = len(layout.batch_sizes)
    for layer in range(len(params) // 6):  # W, U and b of two directions per layer
        mask = None
        if layer > 0 and rng is not None and dropout > 0.0:
            mask = dropout_mask(x.shape, dropout, rng)
            x = x * mask
        out = np.empty((x.shape[0], 2 * H))
        cache = {"mask": mask}
        directions = (("fwd", layout.fwd, slice(0, H)), ("bwd", layout.bwd, slice(H, 2 * H)))
        # the helper takes the second direction iff one step's GIL-free work,
        # U.size times the mean rows per step, reaches the rule; for one
        # sequence that is U.size >= LSTM_THREADS_MIN.  With a helper both
        # directions run at once, holding their states together; serially
        # each runs only once the one before is written out
        work = params[f"l{layer}_fwd_U"].size * x.shape[0]
        pool = _helper() if work >= LSTM_THREADS_MIN * steps else None
        results = _pair(pool, *(
            functools.partial(_direction_forward, params, layer, direction, x, rows,
                              batch_sizes) for direction, rows, _ in directions))
        for direction, rows, block in directions:
            h, cache[direction] = next(results)
            out[rows, block] = h
            if caches is None:  # nothing to keep: free its state before the next pass
                del cache[direction]
        del results  # its calls hold this layer's input
        x = out
        if caches is not None:
            caches.append(cache)
    return x, caches


def birnn_backward(params: dict, caches: list, dout: np.ndarray, grads: dict | None = None):
    """Returns (dx, grads) matching the birnn parameter dict layout, for the
    caches of a ``birnn_forward`` over one sequence: one cache per layer.
    The gradients are written into the arrays of ``grads`` when it is given,
    else into new ones."""
    if caches is None:
        raise ValueError("birnn_backward needs the caches of a one-sequence birnn_forward")
    H = params["l0_fwd_U"].shape[0]
    if grads is None:
        grads = {k: np.empty_like(v) for k, v in params.items()}
    d = np.asarray(dout, dtype=np.float64)
    for layer in range(len(caches) - 1, -1, -1):
        cache = caches[layer]
        pool = _helper() if params[f"l{layer}_fwd_U"].size >= LSTM_THREADS_MIN else None
        (dx_fwd, *_), (dx_bwd_rev, *_) = _pair(
            pool,
            functools.partial(lstm_backward, *_cell(params, layer, "fwd"), cache["fwd"], d[:, :H],
                              _cell(grads, layer, "fwd")),
            functools.partial(lstm_backward, *_cell(params, layer, "bwd"), cache["bwd"],
                              d[:, H:][::-1], _cell(grads, layer, "bwd")))
        d = dx_fwd + dx_bwd_rev[::-1]
        if cache["mask"] is not None:
            d = d * cache["mask"]
    return d, grads


# ---------------------------------------------------------------------------
# optimizer and schedule


# elements per AdamW block: p, m, v, g and the two scratch buffers of one
# block (6 x 256 KiB) stay in L2 while the step walks the buffers
ADAMW_CHUNK = 32768
# every view ``flat_buffer`` makes starts on a 64-byte boundary: a cache line,
# and the alignment the widest SIMD loads want (h @ U at H 48 ran 3.5 us
# aligned, 4.1-4.5 us at the other offsets)
ALIGN_BYTES = 64


class DetachedParameterError(ValueError):
    """A parameter dict entry is no longer the view of the optimizer's buffer
    it was given: it was rebound instead of written into."""


def flat_buffer(arrays: dict, fill: bool = False) -> tuple[np.ndarray, dict]:
    """(buffer, views): one zeroed 1-D buffer of the arrays' common dtype and
    a C-contiguous view of it per entry of ``arrays``, in its order and
    shapes, each starting ``ALIGN_BYTES``-aligned.  The padding between views
    stays zero; with ``fill`` the views hold copies of the arrays."""
    dtype = np.result_type(*arrays.values())
    line = ALIGN_BYTES // dtype.itemsize
    starts = np.cumsum([0] + [-(-np.size(a) // line) * line for a in arrays.values()]).tolist()
    raw = np.zeros(starts[-1] + line, dtype=dtype)
    buffer = raw[(-raw.ctypes.data % ALIGN_BYTES) // dtype.itemsize:][:starts[-1]]
    views = {name: buffer[start: start + np.size(a)].reshape(np.shape(a))
             for (name, a), start in zip(arrays.items(), starts)}
    if fill:
        copy_into(views, arrays)
    return buffer, views


def copy_into(views: dict, arrays: dict) -> None:
    """Writes each array into the view of the same name; refuses, before
    writing any, an array of another shape."""
    for name, view in views.items():
        if np.shape(arrays[name]) != view.shape:
            raise ValueError(f"{name!r} has shape {np.shape(arrays[name])}, its view {view.shape}")
    for name, view in views.items():
        view[...] = arrays[name]


class AdamW:
    """Decoupled-weight-decay Adam over a flat parameter dict, in-place.

    The constructor moves ``params`` into one ``flat_buffer``, rebinding each
    entry of that dict to its view, which a step then refuses to find rebound.
    ``grads``, ``m`` and ``v`` are views of buffers of the same layout.  A
    step takes the gradients written into ``grads``, checks them all before
    any parameter or moment changes, and walks the buffers in blocks of
    ``ADAMW_CHUNK`` elements, once to check and once to update, every
    intermediate in two preallocated scratch buffers; zero padding stays
    zero.  From ``ADAMW_THREADS_MIN`` parameters the caller and the helper
    thread, which has scratch of its own, share out the update's blocks,
    each taking the next one when it is free.  An optimizer
    serves one training run: its owner drops it when the run ends, and the
    parameter buffer lives on in the views.
    """

    def __init__(self, params: dict[str, np.ndarray], betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.betas, self.eps, self.weight_decay = betas, eps, weight_decay
        self._p, self.params = flat_buffer(params, fill=True)
        params.update(self.params)
        self._owner = params
        self._size = sum(p.size for p in params.values())  # without the padding
        self._g = self._grads = None
        self._m, self.m = flat_buffer(params)
        self._v, self.v = flat_buffer(params)
        self.t = 0
        # two scratch buffers for the caller, two for the helper thread; a
        # serial step writes only the caller's
        self._scratch = np.empty((2, 2, ADAMW_CHUNK), dtype=self._p.dtype)

    @property
    def grads(self) -> dict:
        """Views of the gradient buffer, laid out as ``params``: made on first
        use."""
        if self._grads is None:
            self._g, self._grads = flat_buffer(self.params)
        return self._grads

    def step(self, lr: float) -> None:
        """One update at rate ``lr`` from the gradients written into ``grads``."""
        for name, view in self.params.items():
            if self._owner.get(name) is not view:
                raise DetachedParameterError(
                    f"parameter {name!r} is not the optimizer's view of it; write new"
                    f" values into the view instead of rebinding the entry")
        grads = self.grads
        if not self._finite():
            name = next(k for k, g in grads.items() if not np.isfinite(g).all())
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        pool = _helper() if self._size >= ADAMW_THREADS_MIN else None
        # both calls take the next block start from one iterator (each next()
        # is one call under the GIL), so a thread held up by a busy core takes
        # fewer blocks instead of holding up the step; run serially, the first
        # takes them all
        starts = iter(range(0, self._p.size, ADAMW_CHUNK))
        for _ in _pair(pool, *(functools.partial(self._update, starts, scratch, lr)
                               for scratch in self._scratch)):
            pass

    def _finite(self) -> bool:
        """Whether every gradient is finite, one ``ADAMW_CHUNK`` block at a
        time on the caller.  A block whose sum of squares is finite is; one
        whose sum is not is scanned, as a finite block's sum may overflow.
        Sharing the blocks with the helper lost below ~2**22 elements
        (x0.29-0.92 at 2**17-2**21, medians of 15-301 checks) and won
        x1.3-1.4 from there: ~1 ms of a ~35 ms paper emotion step, against a
        desk emotion step slowed by a tenth of a millisecond."""
        with np.errstate(over="ignore"):
            for start in range(0, self._g.size, ADAMW_CHUNK):
                g = self._g[start: start + ADAMW_CHUNK]
                if not np.isfinite(np.dot(g, g)) and not np.isfinite(g).all():
                    return False
        return True

    def _update(self, starts, scratch: np.ndarray, lr: float) -> None:
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        decay = lr * self.weight_decay
        for start in starts:
            block = slice(start, start + ADAMW_CHUNK)
            p_, m, v, g = self._p[block], self._m[block], self._v[block], self._g[block]
            a, b = scratch[0, :p_.size], scratch[1, :p_.size]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            # p -= lr wd p;  p -= lr (m / bc1) / (sqrt(v / bc2) + eps).  A
            # correction that has rounded to 1.0 is not divided by: IEEE
            # division by 1.0 returns its operand exactly, so the bits are
            # the same with one pass over the block less
            np.multiply(p_, decay, out=a)
            p_ -= a
            if bc1 == 1.0:
                np.multiply(m, lr, out=a)
            else:
                np.divide(m, bc1, out=a)
                a *= lr
            if bc2 == 1.0:
                np.sqrt(v, out=b)
            else:
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p_ -= a

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"m/{k}": v for k, v in self.m.items()}
        out.update({f"v/{k}": v for k, v in self.v.items()})
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        """Copies the ``state_arrays`` of a saved step into the moment buffers."""
        for prefix, views in (("m/", self.m), ("v/", self.v)):
            copy_into(views, {k: arrays[prefix + k] for k in views})
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
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_and_grads(params) -> (loss, grads)`` must be deterministic (dropout
    off).  Relative error per entry is |a-n| / max(|a|, |n|, 1e-8).  The
    analytic gradients are copied before any entry is perturbed, so they may
    be views of a buffer that later calls write into.
    """
    grads = {k: np.array(v, copy=True) for k, v in loss_and_grads(params)[1].items()}
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        g = grads[name].reshape(-1)
        for idx in range(flat.size):
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
