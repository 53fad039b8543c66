import collections
import math
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecpe import nn, training
from mecpe.checkpoint import read_npz
from mecpe.config import ExperimentConfig
from mecpe.training import make_cause_model, make_emotion_model, make_pairing_model

from conftest import binary_cross_entropy, weighted_cross_entropy

# the package's two-thread rule for AdamW; the two_threads fixture replaces it
ADAMW_THREADS_MIN = nn.ADAMW_THREADS_MIN
NPZ_THREADS_MIN = nn.NPZ_THREADS_MIN

finite_floats = st.floats(-30, 30, allow_nan=False)


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(nn.softmax(np.zeros(5)), np.full(5, 0.2), rtol=1e-15)

    def test_closed_form(self):
        out = nn.softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], rtol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(logits=st.lists(finite_floats, min_size=1, max_size=8),
           shift=finite_floats)
    def test_shift_invariance_and_normalization(self, logits, shift):
        a = nn.softmax(np.array(logits))
        b = nn.softmax(np.array(logits) + shift)
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert abs(a.sum() - 1.0) <= 1e-12
        assert np.all(a > 0)

    def test_extreme_logits_stable(self):
        out = nn.softmax(np.array([1000.0, -1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)


class TestCrossEntropy:
    def test_unit_weights_reduce_to_plain_ce(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(size=7)
            t = int(rng.integers(7))
            weighted = weighted_cross_entropy(logits, t, np.ones(7))
            plain = float(-nn.log_softmax(logits)[t])
            assert weighted == plain  # bit-for-bit

    def test_uniform_logits_weight_two(self):
        loss = weighted_cross_entropy(np.zeros(7), 3, np.full(7, 2.0))
        assert loss == pytest.approx(2.0 * math.log(7.0), rel=1e-12)

    def test_peaked_logits_loss_vanishes(self):
        losses = [
            weighted_cross_entropy(scale * np.eye(7)[2], 2, np.ones(7))
            for scale in (1.0, 10.0, 50.0)
        ]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-12

    def test_batch_matches_single_row_oracle(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(9, 7)) * 3.0
        targets = rng.integers(0, 7, size=9)
        weights = rng.uniform(0.5, 2.0, size=7)
        loss, _ = nn.weighted_ce_batch(logits, targets, weights)
        rows = [weighted_cross_entropy(z, int(t), weights) for z, t in zip(logits, targets)]
        assert loss == pytest.approx(np.mean(rows), rel=1e-14)

    def test_batch_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 5))
        targets = rng.integers(0, 5, size=3)
        weights = rng.uniform(0.5, 2.0, size=5)
        params = {"logits": logits}

        def wrapped(p):
            loss, dlogits = nn.weighted_ce_batch(p["logits"], targets, weights)
            return loss, {"logits": dlogits}

        assert nn.gradcheck(wrapped, params, epsilon=1e-6) < 1e-8


class TestBinaryCrossEntropy:
    def test_zero_logit(self):
        assert binary_cross_entropy(0.0, 0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert binary_cross_entropy(0.0, 1) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_confident_correct_limit(self):
        assert binary_cross_entropy(40.0, 1) < 1e-15
        assert binary_cross_entropy(-40.0, 0) < 1e-15

    def test_closed_form(self):
        expected = 2.0 + math.log1p(math.exp(-2.0))
        assert binary_cross_entropy(2.0, 0) == pytest.approx(expected, rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(-700, 700, allow_nan=False))
    def test_logit_symmetry(self, z):
        assert binary_cross_entropy(z, 1) == binary_cross_entropy(-z, 0)

    def test_batch_matches_scalar_oracle(self):
        z = np.array([-40.0, -2.0, 0.0, 0.5, 2.0, 40.0])
        t = np.array([0, 1, 1, 0, 0, 1])
        loss, _ = nn.bce_batch(z, t)
        assert loss == pytest.approx(
            np.mean([binary_cross_entropy(a, b) for a, b in zip(z, t)]), rel=1e-14)

    def test_batch_gradient(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=6)
        t = rng.integers(0, 2, size=6)

        def wrapped(p):
            loss, dz = nn.bce_batch(p["z"], t)
            return loss, {"z": dz}

        assert nn.gradcheck(wrapped, {"z": z}, epsilon=1e-6) < 1e-8


class TestDense:
    def test_identity(self):
        W, b = np.eye(3), np.zeros(3)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(nn.dense_forward(W, b, x), x)

    def test_constant(self):
        W, b = np.zeros((3, 2)), np.array([4.0, -1.0])
        np.testing.assert_array_equal(
            nn.dense_forward(W, b, np.ones(3)), [4.0, -1.0])

    def test_hand_computed(self):
        W, b = np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 1.0])
        np.testing.assert_array_equal(
            nn.dense_forward(W, b, np.array([1.0, 2.0])), [2.0, 5.0])

    def test_row_batch_consistent_with_single(self):
        rng = np.random.default_rng(3)
        W, b = rng.normal(size=(4, 3)), rng.normal(size=3)
        X = rng.normal(size=(5, 4))
        batch = nn.dense_forward(W, b, X)
        for i in range(5):
            np.testing.assert_allclose(batch[i], nn.dense_forward(W, b, X[i]), rtol=1e-15)

    def test_width_mismatch(self):
        W, b = np.zeros((3, 2)), np.zeros(2)
        with pytest.raises(ValueError, match="width"):
            nn.dense_forward(W, b, np.zeros(4))


class TestAdamW:
    def test_zero_grads_no_decay_unchanged(self):
        params = {"p": np.array([1.0, -2.0])}
        opt = nn.AdamW(params, weight_decay=0.0)
        opt.grads["p"][...] = np.zeros(2)
        opt.step(1e-3)
        np.testing.assert_array_equal(params["p"], [1.0, -2.0])

    def test_single_step_unit_direction(self):
        # bias-corrected m/v make the first step lr * g/|g| for scalar params
        params = {"p": np.array([1.0])}
        opt = nn.AdamW(params, eps=1e-12, weight_decay=0.0)
        opt.grads["p"][...] = np.array([1.0])
        opt.step(0.1)
        assert params["p"][0] == pytest.approx(0.9, abs=1e-9)

    def test_decoupled_decay_factor(self):
        params = {"p": np.array([2.0])}
        opt = nn.AdamW(params, weight_decay=0.5)
        for expected in (2.0 * 0.95, 2.0 * 0.95**2):
            opt.grads["p"][...] = np.zeros(1)
            opt.step(0.1)
            assert params["p"][0] == pytest.approx(expected, rel=1e-12)

    def test_non_finite_gradient_names_parameter(self):
        params = {"weights": np.ones(2)}
        opt = nn.AdamW(params)
        opt.grads["weights"][...] = np.array([1.0, np.nan])
        with pytest.raises(FloatingPointError,
                           match=r"^non-finite gradient for parameter 'weights'$"):
            opt.step(1e-3)

    def test_params_become_aligned_views_of_one_buffer(self, rng):
        params = {"W": rng.normal(size=(3, 5)), "b": rng.normal(size=5), "s": rng.normal(size=())}
        values = {k: v.copy() for k, v in params.items()}
        opt = nn.AdamW(params)
        starts = []
        for tree in (params, opt.grads, opt.m, opt.v):
            assert list(tree) == list(values)
            for k, view in tree.items():
                assert view.shape == values[k].shape and view.flags.c_contiguous
                assert view.ctypes.data % nn.ALIGN_BYTES == 0
            starts.append([view.ctypes.data - tree["W"].ctypes.data for view in tree.values()])
        assert starts == [[0, 128, 192]] * 4  # 15 and 5 elements, each padded to 8
        for k in values:
            np.testing.assert_array_equal(params[k], values[k])
            assert params[k] is opt.params[k]
        nn.copy_into(opt.grads, {k: np.ones(np.shape(v)) for k, v in values.items()})
        opt.step(1e-3)
        padding = np.ones(opt._p.size, dtype=bool)
        for view in opt.params.values():
            start = (view.ctypes.data - opt._p.ctypes.data) // 8
            padding[start: start + view.size] = False
        assert padding.sum() == 1 + 3 + 7
        for buffer in (opt._p, opt._g, opt._m, opt._v):
            assert not buffer[padding].any()  # AdamW keeps zero padding at zero

    def test_step_with_gradients_written_in_place(self, rng):
        params = {"p": rng.normal(size=4)}
        ref = {"p": params["p"].copy()}
        opt, oracle = nn.AdamW(params), _OracleAdamW(ref)
        g = rng.normal(size=4)
        opt.grads["p"][...] = g
        opt.step(1e-3)
        oracle.step(ref, {"p": g}, 1e-3)
        np.testing.assert_array_equal(params["p"], ref["p"])

    def test_rebound_parameter_is_refused(self, rng):
        # resume must write saved values into the views, not rebind them
        params = {"a": rng.normal(size=3), "b": rng.normal(size=2)}
        opt = nn.AdamW(params)
        before = params["a"].copy()
        params["b"] = params["b"].copy()
        nn.copy_into(opt.grads, {"a": np.ones(3), "b": np.ones(2)})
        with pytest.raises(nn.DetachedParameterError,
                           match=r"^parameter 'b' is not the optimizer's view of it; write new"
                                 r" values into the view instead of rebinding the entry$"):
            opt.step(1e-3)
        assert opt.t == 0
        np.testing.assert_array_equal(params["a"], before)

    def test_load_state_arrays_copies_into_the_buffers(self, rng):
        params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)}
        opt = nn.AdamW(params)
        saved = {k: rng.normal(size=v.shape) for k, v in opt.state_arrays().items()}
        opt.load_state_arrays(saved, 7)
        assert opt.t == 7
        for k, view in opt.state_arrays().items():
            np.testing.assert_array_equal(view, saved[k])
        assert opt.m["a"].base is opt._m.base and opt.v["b"].base is opt._v.base
        with pytest.raises(ValueError, match=r"^'b' has shape \(5,\), its view \(4,\)$"):
            opt.load_state_arrays({**saved, "m/b": np.zeros(5)}, 8)
        np.testing.assert_array_equal(opt.m["a"], saved["m/a"])  # nothing written
        assert opt.t == 7

    def test_float32_parameters_keep_float32_state(self, rng):
        params = {"W": rng.normal(size=(3, 4)).astype(np.float32)}
        opt = nn.AdamW(params)
        opt.grads["W"][...] = np.ones((3, 4), dtype=np.float32)
        opt.step(1e-3)
        for array in (params["W"], opt.grads["W"], opt.m["W"], opt.v["W"], opt._scratch):
            assert array.dtype == np.float32

    def test_bitwise_equal_to_oracle(self, rng):
        _check_adamw_against_oracle(rng)

    def test_bitwise_equal_to_oracle_on_two_threads(self, rng, two_threads):
        _check_adamw_against_oracle(rng)
        assert two_threads.pairs == 5

    @pytest.mark.parametrize("bad_grad,error", [
        (np.array([0, 0, np.inf, 0, 0]), FloatingPointError),
        ("in place", FloatingPointError),
    ])
    def test_bad_gradient_leaves_state_untouched(self, bad_grad, error, rng):
        message = r"^non-finite gradient for parameter 'second'$"
        params = {"first": rng.normal(size=(4, 3)), "second": rng.normal(size=5)}
        opt = nn.AdamW(params)
        nn.copy_into(opt.grads, {k: rng.normal(size=v.shape) for k, v in params.items()})
        opt.step(1e-3)
        before = ({k: v.copy() for k, v in params.items()},
                  {k: v.copy() for k, v in opt.m.items()},
                  {k: v.copy() for k, v in opt.v.items()})
        grads = {"first": rng.normal(size=(4, 3)), "second": bad_grad}
        if isinstance(bad_grad, str):  # one element made non-finite after the write
            opt.grads["first"][...] = grads["first"]
            opt.grads["second"][3] = -np.inf
        else:
            nn.copy_into(opt.grads, grads)
        with pytest.raises(error, match=message):
            opt.step(1e-3)
        assert opt.t == 1
        for now, then in zip((params, opt.m, opt.v), before):
            for k in then:
                np.testing.assert_array_equal(now[k], then[k])


def _check_adamw_against_oracle(rng):
    # "big" spans two full blocks and a ragged third
    shapes = {"big": (3, (2 * nn.ADAMW_CHUNK + 123) // 3), "W": (7, 5),
              "b": (5,), "s": ()}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    assert params["big"].size > 2 * nn.ADAMW_CHUNK
    assert params["big"].size % nn.ADAMW_CHUNK
    ref = {k: v.copy() for k, v in params.items()}
    opt = nn.AdamW(params, weight_decay=0.1)
    oracle = _OracleAdamW(ref, weight_decay=0.1)
    for step in range(5):
        grads = {k: rng.normal(size=s) * 10.0 ** (step - 2) for k, s in shapes.items()}
        lr = 0.05 * (step + 1) / 5
        nn.copy_into(opt.grads, grads)
        opt.step(lr)
        oracle.step(ref, grads, lr)
    assert opt.t == oracle.t == 5
    for k in shapes:
        np.testing.assert_array_equal(params[k], ref[k])
        np.testing.assert_array_equal(opt.m[k], oracle.m[k])
        np.testing.assert_array_equal(opt.v[k], oracle.v[k])


def _desk_models():
    """The parameters of the desk profile's emotion (bilstm_crf), cause
    (bilstm) and pairing models: hidden 48, 32 input features."""
    config = ExperimentConfig(emotion_variant="bilstm_crf", cause_variant="bilstm",
                              hidden_size=48)
    rng = np.random.default_rng(28)
    emotion = make_emotion_model(config, 32, rng)
    cause = make_cause_model(config, 32, rng)
    pairing = make_pairing_model(config, emotion.rep_dim, cause.rep_dim, rng)
    return emotion.params, cause.params, pairing.params


class _OracleAdamW(nn.AdamW):
    """The original one-pass-per-op step, kept as the reference."""

    def step(self, params, grads, lr):
        b1, b2 = self.betas
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * self.weight_decay * p
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class TestSchedule:
    def test_endpoints_and_peak(self):
        sched = nn.WarmupSchedule(warmup_steps=100, total_steps=1100, peak_lr=2.0)
        assert nn.lr_at(sched, 0) == 0.0
        assert nn.lr_at(sched, 100) == 2.0
        assert nn.lr_at(sched, 1100) == 0.0

    def test_no_warmup_starts_at_peak(self):
        sched = nn.WarmupSchedule(warmup_steps=0, total_steps=10, peak_lr=0.5)
        assert nn.lr_at(sched, 0) == 0.5

    def test_halfway_decay(self):
        sched = nn.WarmupSchedule(warmup_steps=100, total_steps=1100, peak_lr=1.0)
        assert nn.lr_at(sched, 600) == pytest.approx(0.5, rel=1e-12)

    def test_piecewise_linear_and_single_peak(self):
        sched = nn.WarmupSchedule(warmup_steps=5, total_steps=20, peak_lr=1.0)
        values = [nn.lr_at(sched, s) for s in range(21)]
        peak_positions = [s for s, v in enumerate(values) if v == max(values)]
        assert peak_positions == [5]
        ramp = np.diff(values[:6])
        decay = np.diff(values[5:])
        np.testing.assert_allclose(ramp, ramp[0], rtol=1e-12)
        np.testing.assert_allclose(decay, decay[0], rtol=1e-12)

    def test_out_of_range(self):
        sched = nn.WarmupSchedule(warmup_steps=1, total_steps=5, peak_lr=1.0)
        with pytest.raises(ValueError):
            nn.lr_at(sched, 6)

    def test_invalid_warmup(self):
        with pytest.raises(ValueError):
            nn.WarmupSchedule(warmup_steps=6, total_steps=5, peak_lr=1.0)


class TestDropout:
    def test_rate_zero_all_ones(self, rng):
        np.testing.assert_array_equal(nn.dropout_mask((4, 5), 0.0, rng), np.ones((4, 5)))

    def test_monte_carlo_stats(self, rng):
        mask = nn.dropout_mask(100_000, 0.3, rng)
        zero_fraction = float(np.mean(mask == 0.0))
        assert zero_fraction == pytest.approx(0.3, abs=0.01)
        assert float(mask.mean()) == pytest.approx(1.0, abs=0.01)
        kept = mask[mask != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-12)

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            nn.dropout_mask(3, 1.0, rng)


def _swap_directions(params):
    """Parameter tree that runs the stack 'backwards': directions exchanged and,
    above layer 0, the input-channel halves of W rows exchanged to follow the
    swapped concatenation order."""
    H = params["l0_fwd_U"].shape[0]
    swapped = {}
    for layer in range(len(params) // 6):
        for src, dst in (("fwd", "bwd"), ("bwd", "fwd")):
            for kind in ("W", "U", "b"):
                v = params[f"l{layer}_{src}_{kind}"].copy()
                if kind == "W" and layer > 0:
                    v = np.concatenate([v[H:], v[:H]], axis=0)
                swapped[f"l{layer}_{dst}_{kind}"] = v
    return swapped


def _oracle_lstm_forward(W, U, b, x):
    """Per-timestep LSTM (the original kernel), kept as the reference."""
    T = x.shape[0]
    H = U.shape[0]
    h = np.zeros(H)
    c = np.zeros(H)
    hs = np.zeros((T, H))
    cache = {"x": x, **{k: np.zeros((T, H))
                        for k in ("h_prev", "c_prev", "i", "f", "g", "o", "tanh_c")}}
    for t in range(T):
        z = x[t] @ W + h @ U + b
        i = nn.sigmoid(z[:H])
        f = nn.sigmoid(z[H: 2 * H])
        g = np.tanh(z[2 * H: 3 * H])
        o = nn.sigmoid(z[3 * H:])
        cache["h_prev"][t] = h
        cache["c_prev"][t] = c
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        cache["i"][t], cache["f"][t], cache["g"][t], cache["o"][t] = i, f, g, o
        cache["tanh_c"][t] = tanh_c
        hs[t] = h
    return hs, cache


def _oracle_vectorized_lstm_forward(W, U, b, x):
    """The one-sequence vectorized kernel that the packed kernel replaced, kept
    as the reference: one input GEMM, then one (H,) @ (H, 4H) GEMV per step."""
    T = x.shape[0]
    H = U.shape[0]
    scale = np.full(4 * H, 0.5)
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


def _oracle_lstm_init(input_size, hidden_size, rng):
    """The per-gate init the package used to have: W, then each gate block of
    U as the sign-fixed Q of its own (H, H) Gaussian, concatenated."""
    bound = 1.0 / np.sqrt(input_size)
    W = rng.uniform(-bound, bound, size=(input_size, 4 * hidden_size))
    blocks = []
    for _ in range(4):
        q, r = np.linalg.qr(rng.standard_normal((hidden_size, hidden_size)))
        blocks.append(q * np.sign(np.diag(r)))
    b = np.zeros(4 * hidden_size)
    b[hidden_size: 2 * hidden_size] = 1.0
    return {"W": W, "U": np.concatenate(blocks, axis=1), "b": b}


def _oracle_birnn_forward(params, x):
    """The one-sequence stack over the vectorized oracle kernel, as it ran
    before packing: the backward direction reads x[::-1]."""
    caches = []
    for layer in range(len(params) // 6):
        cell = {d: [params[f"l{layer}_{d}_{k}"] for k in "WUb"] for d in ("fwd", "bwd")}
        h_fwd, cache_fwd = _oracle_vectorized_lstm_forward(*cell["fwd"], x)
        h_bwd_rev, cache_bwd = _oracle_vectorized_lstm_forward(*cell["bwd"], x[::-1])
        x = np.concatenate([h_fwd, h_bwd_rev[::-1]], axis=1)
        caches.append({"fwd": cache_fwd, "bwd": cache_bwd, "mask": None})
    return x, caches


def _oracle_lstm_backward(W, U, b, cache, dh_seq):
    x = cache["x"]
    T, H = dh_seq.shape
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros_like(b)
    dx = np.zeros_like(x)
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    for t in range(T - 1, -1, -1):
        i, f, g, o = cache["i"][t], cache["f"][t], cache["g"][t], cache["o"][t]
        tanh_c = cache["tanh_c"][t]
        dh = dh_seq[t] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c ** 2) + dc_next
        df = dc * cache["c_prev"][t]
        di = dc * g
        dg = dc * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g ** 2),
            do * o * (1.0 - o),
        ])
        dW += np.outer(x[t], dz)
        dU += np.outer(cache["h_prev"][t], dz)
        db += dz
        dx[t] = dz @ W.T
        dh_next = dz @ U.T
        dc_next = dc * f
    return dx, dW, dU, db


class TestLSTMKernel:
    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("D,H", [(32, 48), (512, 256), (5, 3)])
    def test_matches_per_timestep_oracle(self, T, D, H):
        rng = np.random.default_rng(T * 1000 + H)
        p = nn.lstm_init(D, H, rng)
        W, U = p["W"], p["U"]
        b = p["b"] + rng.normal(size=p["b"].shape)  # drive every gate off 0
        x = rng.normal(size=(T, D))
        dh_seq = rng.normal(size=(T, H))
        h_seq, cache = nn.lstm_forward(W, U, b, x)
        ref_h, ref_cache = _oracle_lstm_forward(W, U, b, x)
        np.testing.assert_allclose(h_seq, ref_h, rtol=0, atol=1e-12)
        got = nn.lstm_backward(W, U, b, cache, dh_seq)
        ref = _oracle_lstm_backward(W, U, b, ref_cache, dh_seq)
        for name, a, r in zip(("dx", "dW", "dU", "db"), got, ref):
            assert a.shape == r.shape, name
            np.testing.assert_allclose(a, r, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("D,H", [(32, 48), (512, 256), (5, 3)])
    def test_one_sequence_bitwise_equal_to_vectorized_oracle(self, T, D, H):
        # training runs the one-sequence kernel and must not move a bit
        rng = np.random.default_rng(T * 1000 + H + 1)
        p = nn.lstm_init(D, H, rng)
        b = p["b"] + rng.normal(size=p["b"].shape)
        x = rng.normal(size=(T, D))
        ref_h, ref_cache = _oracle_vectorized_lstm_forward(p["W"], p["U"], b, x)
        h_seq, cache = nn.lstm_forward(p["W"], p["U"], b, x)
        np.testing.assert_array_equal(h_seq, ref_h)
        assert cache.keys() == ref_cache.keys()
        for name in cache:
            np.testing.assert_array_equal(cache[name], ref_cache[name], err_msg=name)

    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("D,H", [(32, 48), (512, 256), (5, 3)])
    def test_packed_sequence_rows_do_not_depend_on_the_pack(self, T, D, H):
        # a forward-only pass of one sequence gives the rows that sequence gets
        # inside a pack of others, where it runs alone at some steps and in
        # company at others
        rng = np.random.default_rng(T * 1000 + H + 2)
        p = nn.lstm_init(D, H, rng)
        b = p["b"] + rng.normal(size=p["b"].shape)
        lengths = [T + 3, T, max(T - 1, 1), 1, T]
        layout = nn.pack_sequences(lengths)
        x = rng.normal(size=(layout.n_rows, D))
        h_packed, _ = nn.lstm_forward(p["W"], p["U"], b, x[layout.fwd], layout.batch_sizes)
        h = np.empty_like(h_packed)
        h[layout.fwd] = h_packed
        for rows, n in zip(layout.slices(), lengths):
            alone, _ = nn.lstm_forward(p["W"], p["U"], b, x[rows],
                                       nn.pack_sequences([n]).batch_sizes)
            np.testing.assert_array_equal(h[rows], alone)

    def test_gradcheck_one_direction(self):
        # random linear read-out of h_seq; checks dW, dU, db and dx together
        rng = np.random.default_rng(12)
        p = nn.lstm_init(5, 4, rng)
        params = {**p, "x": rng.normal(size=(6, 5))}
        params["b"] = params["b"] + rng.normal(size=params["b"].shape)
        readout = rng.normal(size=(6, 4))

        def loss_and_grads(q):
            h_seq, cache = nn.lstm_forward(q["W"], q["U"], q["b"], q["x"])
            dx, dW, dU, db = nn.lstm_backward(q["W"], q["U"], q["b"], cache, readout)
            return float(np.sum(h_seq * readout)), {"W": dW, "U": dU, "b": db, "x": dx}

        assert nn.gradcheck(loss_and_grads, params, epsilon=1e-5) < 1e-6

    def test_float32_parameters_give_float32_results(self):
        rng = np.random.default_rng(13)
        p = {k: v.astype(np.float32) for k, v in nn.lstm_init(5, 4, rng).items()}
        x = rng.normal(size=(6, 5)).astype(np.float32)
        h_seq, cache = nn.lstm_forward(p["W"], p["U"], p["b"], x)
        grads = nn.lstm_backward(p["W"], p["U"], p["b"], cache,
                                 rng.normal(size=(6, 4)).astype(np.float32))
        for array in (h_seq, *cache.values(), *grads):
            assert array.dtype == np.float32
        ref_h, _ = nn.lstm_forward(*(p[k].astype(np.float64) for k in "WUb"),
                                   x.astype(np.float64))
        np.testing.assert_allclose(h_seq, ref_h, rtol=0, atol=1e-5)

    def test_backward_writes_into_given_arrays(self):
        rng = np.random.default_rng(14)
        p = nn.lstm_init(5, 4, rng)
        x, dh = rng.normal(size=(6, 5)), rng.normal(size=(6, 4))
        _, cache = nn.lstm_forward(p["W"], p["U"], p["b"], x)
        fresh = nn.lstm_backward(p["W"], p["U"], p["b"], cache, dh)
        out = tuple(np.full_like(p[k], np.nan) for k in "WUb")
        written = nn.lstm_backward(p["W"], p["U"], p["b"], cache, dh, out)
        assert all(a is b for a, b in zip(written[1:], out))
        _assert_bitwise(written, fresh)


class TestGradcheck:
    def test_copies_the_analytic_gradient_first(self):
        # the gradient is a view that every later call overwrites
        buffer = {"p": np.zeros(3)}
        calls = []

        def loss_and_grads(q):
            calls.append(None)
            buffer["p"][...] = 2.0 * q["p"] if len(calls) == 1 else 1e6
            return float(np.sum(q["p"] ** 2)), buffer

        assert nn.gradcheck(loss_and_grads, {"p": np.array([1.0, -2.0, 0.5])}) < 1e-8
        assert len(calls) == 7


class TestPackedLayout:
    def test_hand_built_layout(self):
        # rows 0-2, 3, 4-7, 8-11; sorted longest first: sequences 2, 3, 0, 1
        layout = nn.pack_sequences([3, 1, 4, 4])
        assert layout.starts.tolist() == [0, 3, 4, 8]
        assert layout.batch_sizes.tolist() == [4, 3, 3, 2]
        assert layout.fwd.tolist() == [4, 8, 0, 3, 5, 9, 1, 6, 10, 2, 7, 11]
        assert layout.bwd.tolist() == [7, 11, 2, 3, 6, 10, 1, 5, 9, 0, 4, 8]
        assert layout.n_rows == 12
        assert layout.slices() == [slice(0, 3), slice(3, 4), slice(4, 8), slice(8, 12)]

    def test_one_sequence_is_trivial(self):
        layout = nn.pack_sequences([5])
        assert layout.batch_sizes.tolist() == [1] * 5
        assert layout.n_rows == 5 and layout.slices() == [slice(0, 5)]
        rows = np.arange(5)
        assert rows[layout.fwd].tolist() == [0, 1, 2, 3, 4]
        assert rows[layout.bwd].tolist() == [4, 3, 2, 1, 0]

    @settings(max_examples=50, deadline=None)
    @given(lengths=st.lists(st.integers(1, 9), min_size=2, max_size=12))
    def test_each_step_is_a_prefix_of_the_last(self, lengths):
        layout = nn.pack_sequences(lengths)
        assert sorted(layout.fwd.tolist()) == list(range(sum(lengths)))
        assert sorted(layout.bwd.tolist()) == list(range(sum(lengths)))
        ends = np.cumsum(layout.batch_sizes)
        steps = np.split(layout.fwd, ends[:-1])
        for prev, cur in zip(steps, steps[1:]):
            # the same sequences, one row further on
            np.testing.assert_array_equal(cur, prev[: cur.size] + 1)

    @pytest.mark.parametrize("lengths", [[], [3, 0], [-1]])
    def test_rejects_empty_sequences(self, lengths):
        with pytest.raises(ValueError, match="lengths >= 1"):
            nn.pack_sequences(lengths)


class TestBiRNN:
    def _params(self, input_size=3, hidden=4, layers=2, seed=0):
        return nn.birnn_init(input_size, hidden, layers, np.random.default_rng(seed))

    @pytest.mark.parametrize("lengths", [
        [1] * 6,                                         # T = 1 throughout
        [7] * 5,                                         # equal lengths
        np.random.default_rng(8).integers(5, 16, 24),    # 5-15 mixed
        [1, 12, 3, 12, 1, 6],                            # ties and singletons
    ])
    def test_packed_batch_matches_per_sequence_oracle(self, lengths):
        params = self._params(input_size=6, hidden=5, layers=3, seed=7)
        H = 5
        layout = nn.pack_sequences(lengths)
        x = np.random.default_rng(9).normal(size=(layout.n_rows, 6))
        out, caches = nn.birnn_forward(params, x, layout=layout)
        assert out.shape == (layout.n_rows, 2 * H)
        assert caches is None
        for rows in layout.slices():
            ref, _ = _oracle_birnn_forward(params, x[rows])
            for block in (slice(0, H), slice(H, 2 * H)):  # each direction
                np.testing.assert_allclose(out[rows, block], ref[:, block], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("T", [1, 2, 9])
    def test_one_sequence_bitwise_equal_to_oracle(self, T):
        # the training path: forward outputs and every gradient unchanged
        params = self._params(input_size=6, hidden=5, layers=3, seed=T)
        rng = np.random.default_rng(10 + T)
        x = rng.normal(size=(T, 6))
        dout = rng.normal(size=(T, 10))
        out, caches = nn.birnn_forward(params, x)
        ref, ref_caches = _oracle_birnn_forward(params, x)
        np.testing.assert_array_equal(out, ref)
        dx, grads = nn.birnn_backward(params, caches, dout)
        ref_dx, ref_grads = nn.birnn_backward(params, ref_caches, dout)
        np.testing.assert_array_equal(dx, ref_dx)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)

    def test_backward_refuses_a_packed_batch(self):
        params = self._params()
        layout = nn.pack_sequences([2, 3])
        out, caches = nn.birnn_forward(params, np.zeros((5, 3)), layout=layout)
        with pytest.raises(ValueError, match="one-sequence"):
            nn.birnn_backward(params, caches, out)

    def test_single_step_depends_only_on_itself(self):
        params = self._params()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3))
        out, _ = nn.birnn_forward(params, x)
        assert out.shape == (1, 8)

    def test_zero_weights_zero_outputs(self):
        params = self._params()
        zeros = {k: np.zeros_like(v) for k, v in params.items()}
        x = np.random.default_rng(2).normal(size=(5, 3))
        out, _ = nn.birnn_forward(zeros, x)
        np.testing.assert_array_equal(out, np.zeros((5, 8)))

    def test_direction_symmetry(self):
        # reversing the input and exchanging direction parameters reverses the
        # output sequence (with the two direction blocks exchanged)
        params = self._params(layers=3)
        H = 4
        x = np.random.default_rng(3).normal(size=(6, 3))
        out, _ = nn.birnn_forward(params, x)
        swapped_out, _ = nn.birnn_forward(_swap_directions(params), x[::-1])
        np.testing.assert_allclose(
            swapped_out, np.concatenate([out[:, H:], out[:, :H]], axis=1)[::-1],
            atol=1e-12,
        )

    def test_information_flows_both_directions(self):
        params = self._params()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 3))
        base, _ = nn.birnn_forward(params, x)
        for t in (0, 6):
            bumped = x.copy()
            bumped[t] += 0.5
            out, _ = nn.birnn_forward(params, bumped)
            other_end = 6 - t
            assert not np.allclose(out[other_end], base[other_end])

    def test_gradcheck_two_layer(self):
        # squared-sum head over the BiRNN outputs, T=5 hidden 4
        params = self._params(input_size=3, hidden=4, layers=2, seed=5)
        x = np.random.default_rng(6).normal(size=(5, 3))

        def loss_and_grads(p):
            out, caches = nn.birnn_forward(p, x)
            loss = 0.5 * float(np.sum(out**2))
            _, grads = nn.birnn_backward(p, caches, out)
            return loss, grads

        assert nn.gradcheck(loss_and_grads, params, epsilon=1e-4) < 1e-4

    def test_dropout_without_rng_is_the_undropped_pass(self):
        # a pass draws dropout only from an rng it is given: without one a
        # dropout stack runs bit for bit as the dropout=0 pass
        params = self._params(layers=3, seed=11)
        x = np.random.default_rng(12).normal(size=(6, 3))
        out, caches = nn.birnn_forward(params, x, dropout=0.5)
        ref, ref_caches = nn.birnn_forward(params, x)
        np.testing.assert_array_equal(out, ref)
        assert all(cache["mask"] is None for cache in caches + ref_caches)
        dropped, _ = nn.birnn_forward(params, x, 0.5, np.random.default_rng(13))
        assert not np.array_equal(dropped, ref)

    def test_bad_shapes(self):
        params = self._params()
        with pytest.raises(ValueError):
            nn.birnn_forward(params, np.zeros((0, 3)))
        with pytest.raises(ValueError):
            nn.birnn_forward(params, np.zeros((2, 5)))
        with pytest.raises(ValueError, match="rows in the layout"):
            nn.birnn_forward(params, np.zeros((4, 3)), layout=nn.pack_sequences([2, 3]))


def _assert_bitwise(a, b, where="result"):
    """a and b are equal bit for bit: arrays, or dicts, lists and tuples of them."""
    if isinstance(a, dict):
        assert list(a) == list(b), where
        for k in a:
            _assert_bitwise(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_bitwise(x, y, f"{where}[{i}]")
    elif a is None:
        assert b is None, where
    else:
        np.testing.assert_array_equal(a, b, err_msg=where)


class TestTwoThreads:
    def _params(self):
        return nn.birnn_init(6, 5, 3, np.random.default_rng(21))

    @staticmethod
    def _bytes(tree):
        return {k: (v.dtype, v.shape, v.tobytes()) for k, v in tree.items()}

    @pytest.mark.parametrize("input_size, hidden, layers", [(32, 256, 1), (6, 5, 3), (2, 255, 2)])
    def test_init_same_bytes_as_per_cell_oracle(self, two_threads, input_size, hidden, layers):
        # serially and on two threads, one cell's draws after another's in
        # birnn_shapes order, and the generator left where the cells leave it
        def init():
            rng = np.random.default_rng(33)
            return self._bytes(nn.birnn_init(input_size, hidden, layers, rng)), rng.random()

        serial, parallel = two_threads.serial_and_parallel(init)
        assert serial == parallel
        shapes = nn.birnn_shapes(input_size, hidden, layers)
        for reference in (_oracle_lstm_init, nn.lstm_init):
            rng = np.random.default_rng(33)
            expected = {}
            for name, shape in shapes.items():
                if name.endswith("W"):
                    cell = reference(shape[0], hidden, rng)
                    expected.update({name[:-1] + k: v for k, v in cell.items()})
            assert (self._bytes(expected), rng.random()) == serial, reference

    def test_init_failures_reach_the_caller_and_free_the_helper(self, two_threads, monkeypatch):
        # a failed draw ends the helper's loop; a failed factorisation on the
        # helper reaches the caller once the caller has drawn every cell
        class FailingRng:
            def __init__(self, draws):
                self.rng, self.draws = np.random.default_rng(34), draws

            def uniform(self, *args, **kwargs):
                return self.rng.uniform(*args, **kwargs)

            def standard_normal(self, *args, **kwargs):
                self.draws -= 1
                if self.draws < 0:
                    raise MemoryError("no room for the draw")
                return self.rng.standard_normal(*args, **kwargs)

        with pytest.raises(MemoryError, match="no room for the draw"):
            nn.birnn_init(4, 8, 2, FailingRng(2))
        assert nn._helper().submit(lambda: True).result(timeout=30)
        qr = np.linalg.qr

        def fails_on_helper(a):
            if threading.current_thread().name.startswith("mecpe-nn"):
                raise np.linalg.LinAlgError("helper factorisation failed")
            return qr(a)

        monkeypatch.setattr(np.linalg, "qr", fails_on_helper)
        with pytest.raises(np.linalg.LinAlgError, match="helper factorisation failed"):
            for _ in range(20):  # until the helper takes one before the caller has all
                nn.birnn_init(4, 64, 2, np.random.default_rng(35))
        monkeypatch.setattr(np.linalg, "qr", qr)
        assert nn._helper().submit(lambda: True).result(timeout=30)

    def test_forward_one_sequence_bitwise_equal(self, two_threads):
        # dropout draws stay in the caller, in the same order
        params = self._params()
        x = np.random.default_rng(22).normal(size=(9, 6))

        def run():
            rng = np.random.default_rng(23)
            out, caches = nn.birnn_forward(params, x, 0.3, rng)
            return out, caches, rng.random(3)

        serial, parallel = two_threads.serial_and_parallel(run)
        _assert_bitwise(serial, parallel)

    def test_backward_every_gradient_bitwise_equal(self, two_threads):
        params = self._params()
        rng = np.random.default_rng(25)
        x = rng.normal(size=(7, 6))
        dout = rng.normal(size=(7, 10))

        def run():
            _, caches = nn.birnn_forward(params, x, 0.3, np.random.default_rng(26))
            return nn.birnn_backward(params, caches, dout)

        serial, parallel = two_threads.serial_and_parallel(run)
        _assert_bitwise(serial, parallel)
        assert sorted(parallel[1]) == sorted(params)

    def test_forward_packed_ragged_batch_bitwise_equal(self, two_threads):
        # a forward-only packed pass runs its directions on two threads too
        params = self._params()
        layout = nn.pack_sequences([4, 12, 1, 3])
        x = np.random.default_rng(31).normal(size=(layout.n_rows, 6))
        serial, parallel = two_threads.serial_and_parallel(
            lambda: nn.birnn_forward(params, x, layout=layout))
        _assert_bitwise(serial, parallel)

    def test_packed_forward_below_the_rule_frees_each_direction_first(
            self, two_threads, monkeypatch):
        # below the size rule a packed pass keeps one direction's state at a
        # time, though a helper is there
        two_threads.force(False)
        params = self._params()
        layout = nn.pack_sequences([4, 12, 1, 3])
        x = np.random.default_rng(31).normal(size=(layout.n_rows, 6))
        lstm_forward = nn.lstm_forward
        states = []

        def spy(*args):
            # the state of every direction before is gone when the next starts
            assert all(ref() is None for ref in states)
            h, cache = lstm_forward(*args)
            states.append(weakref.ref(cache["gates"]))
            return h, cache

        monkeypatch.setattr(nn, "lstm_forward", spy)
        nn.birnn_forward(params, x, layout=layout)
        assert len(states) == 6 and two_threads.pairs == 0

    def test_helper_exception_reaches_caller(self, two_threads, monkeypatch):
        params = self._params()
        x = np.random.default_rng(27).normal(size=(4, 6))
        out, caches = nn.birnn_forward(params, x)
        lstm_backward = nn.lstm_backward
        helper_started = threading.Event()

        def fails_on_helper(*args):
            if threading.current_thread().name.startswith("mecpe-nn"):
                helper_started.set()
                raise FloatingPointError("helper direction failed")
            helper_started.wait(60)  # else the caller would run both directions
            return lstm_backward(*args)

        monkeypatch.setattr(nn, "lstm_backward", fails_on_helper)
        with pytest.raises(FloatingPointError, match="helper direction failed"):
            nn.birnn_backward(params, caches, out)
        monkeypatch.setattr(nn, "lstm_backward", lstm_backward)
        nn.birnn_backward(params, caches, out)  # the helper still serves

    def test_caller_exception_waits_for_helper(self, two_threads):
        started, finished = threading.Event(), []

        def slow():
            started.set()
            time.sleep(0.05)
            finished.append(True)

        def fails():
            started.wait(60)  # the helper is running slow() when the caller fails
            raise KeyError("caller failed")

        with pytest.raises(KeyError, match="caller failed"):
            list(nn._pair(nn._helper(), fails, slow))
        assert finished == [True]

    def test_caller_runs_what_a_busy_helper_has_not_started(self, two_threads, rng):
        pool = nn._helper()
        release = threading.Event()
        busy = pool.submit(release.wait, 60)
        try:
            ran_on = []
            result = list(nn._pair(pool, lambda: 1,
                                   lambda: ran_on.append(threading.current_thread()) or 2))
            assert result == [1, 2] and ran_on == [threading.current_thread()]
            # an AdamW step then takes every block in the caller, unchanged
            _check_adamw_against_oracle(rng)
        finally:
            release.set()
        assert busy.result(timeout=60)

    def test_adamw_shared_blocks_bitwise_equal(self, two_threads, monkeypatch, rng):
        # the two threads share out the blocks: each is updated exactly once
        shapes = {"a": (15 * nn.ADAMW_CHUNK + 7,), "b": (14, nn.ADAMW_CHUNK),
                  "c": (nn.ADAMW_CHUNK + 5,), "d": (11,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        opt = nn.AdamW(params, weight_decay=0.1)
        oracle = _OracleAdamW(ref, weight_decay=0.1)
        taken = []
        update = nn.AdamW._update

        def counted(self, starts, *args):
            def each():
                for start in starts:
                    taken.append(start)
                    yield start
            return update(self, each(), *args)

        monkeypatch.setattr(nn.AdamW, "_update", counted)
        for step in range(4):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            nn.copy_into(opt.grads, grads)
            opt.step(0.01 * (step + 1))
            oracle.step(ref, grads, 0.01 * (step + 1))
        for k in shapes:
            np.testing.assert_array_equal(params[k], ref[k])
            np.testing.assert_array_equal(opt.m[k], oracle.m[k])
            np.testing.assert_array_equal(opt.v[k], oracle.v[k])
        # one walk over the flat buffer, whose views start on 64-byte lines:
        # 30 chunks and 32 more elements, so 31 blocks a step
        assert opt._p.size == 30 * nn.ADAMW_CHUNK + 32
        assert sorted(taken) == sorted(list(range(0, opt._p.size, nn.ADAMW_CHUNK)) * 4)

    def test_size_rules(self, two_threads, monkeypatch):
        # the real thresholds: a layer pairs its directions iff U.size times
        # the mean rows per step reaches 2**18.  One sequence: H 256 pairs and
        # H 255 does not, in a training pass and a forward-only one alike.
        # Init pairs by the one-sequence rule: at H 256 and not at H 255
        monkeypatch.setattr(nn, "LSTM_THREADS_MIN", 2 ** 18)
        for hidden, inits, pairs in ((255, 0, 0), (256, 1, 3)):
            params = nn.birnn_init(2, hidden, 1, np.random.default_rng(28))
            assert two_threads.pairs == inits
            out, caches = nn.birnn_forward(params, np.ones((2, 2)))
            nn.birnn_backward(params, caches, out)
            assert two_threads.pairs == pairs
        params = nn.birnn_init(2, 255, 2, np.random.default_rng(29))
        nn.birnn_forward(params, np.ones((5, 2)), layout=nn.pack_sequences([5]))
        assert two_threads.pairs == 3
        # packed: H 255 over lengths [2, 1] is 1.5 rows per step; at H 48
        # (U.size 9216) 28 rows per step stay serial and 29 pair
        for hidden, lengths, pairs in ((255, [2, 1], 5), (48, [2] * 28, 5), (48, [2] * 29, 7),
                                       (48, [3] + [2] * 42, 9)):
            params = nn.birnn_init(2, hidden, 2, np.random.default_rng(29))
            layout = nn.pack_sequences(lengths)
            nn.birnn_forward(params, np.ones((layout.n_rows, 2)), layout=layout)
            assert two_threads.pairs == pairs, (hidden, lengths)
        # an AdamW step pairs from 2**17 parameters: the desk emotion and
        # cause models do, the desk pairing model does not; desk init (H 48)
        # stays serial
        monkeypatch.setattr(nn, "ADAMW_THREADS_MIN", ADAMW_THREADS_MIN)
        desk = _desk_models()
        assert two_threads.pairs == 9
        for params, size, pairs in ((desk[0], 198_886, 10), (desk[1], 142_561, 11),
                                    (desk[2], 1_025, 11), ({"p": np.zeros(2 ** 17 - 1)}, None, 11),
                                    ({"p": np.zeros(2 ** 17)}, None, 12)):
            assert size is None or sum(p.size for p in params.values()) == size
            opt = nn.AdamW(params)
            nn.copy_into(opt.grads, {k: np.ones(p.shape) for k, p in params.items()})
            opt.step(1e-3)
            assert two_threads.pairs == pairs

    def test_npz_byte_rule(self, two_threads, monkeypatch, tmp_path):
        # files pair from 2**22 bytes: the desk bundles and the desk state.npz
        # (3.2 MB) are saved and read serially, a paper-shape cause
        # model's (30 MB, its state 60 MB) on two threads
        two_threads.force(False)
        monkeypatch.setattr(nn, "NPZ_THREADS_MIN", NPZ_THREADS_MIN)
        config = ExperimentConfig(emotion_variant="bilstm_crf", cause_variant="bilstm",
                                  hidden_size=48)
        rng = np.random.default_rng(30)
        emotion = make_emotion_model(config, 32, rng)
        cause = make_cause_model(config, 32, rng)
        desk = [("emotion", emotion), ("cause", cause),
                ("pairing", make_pairing_model(config, emotion.rep_dim, cause.rep_dim, rng))]
        paper = make_cause_model(ExperimentConfig(cause_variant="bilstm"), 32, rng)
        for (stage, model), pairs in [*((case, 0) for case in desk), (("cause", paper), 4)]:
            out = tmp_path / stage / str(pairs)
            out.mkdir(parents=True)
            trainer = training.StageTrainer(stage, model, config, 1, 1, 1,
                                            lambda batch, rng, grads: 1.0, lambda: 0.5, str(out))
            before = two_threads.pairs
            trainer.run()  # one save: last, best and state
            for name in ("last", "best", "state"):
                read_npz(out / f"{stage}_{name}.npz", "test file")
            files = {name: os.path.getsize(out / f"{stage}_{name}.npz")
                     for name in ("last", "state")}
            assert (max(files.values()) < 3.25e6 if pairs == 0
                    else min(files.values()) > 2.9e7), (stage, files)
            # the save, then the reads of last, best and state
            assert two_threads.pairs - before == pairs, (stage, files)

    @pytest.mark.parametrize("betas, first_t, crossed", [
        ((0.9, 0.999), 354, [True, False]), ((0.9, 0.999), 37_409, [False, True]),
        # corrections still below 1.0 at the default betas' crossing points
        ((0.95, 0.9995), 354, [False, False]), ((0.95, 0.9995), 37_409, [False, False]),
        ((0.95, 0.9995), 728, [True, False]), ((0.95, 0.9995), 74_839, [False, True]),
    ])
    def test_adamw_unit_corrections_bitwise_equal(self, two_threads, monkeypatch, rng,
                                                  betas, first_t, crossed):
        # a step whose bias correction 1 - beta**t has rounded to 1.0 skips
        # its division; across that t, on the real rule's two threads and
        # serially, every step matches the oracle bit for bit
        monkeypatch.setattr(nn, "ADAMW_THREADS_MIN", ADAMW_THREADS_MIN)
        shapes = {"big": (2 ** 17 - 40,), "W": (7, 5), "b": (5,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        copies = [{k: v.copy() for k, v in params.items()} for _ in range(2)]
        paired, serial = (nn.AdamW(p, betas, weight_decay=0.1) for p in (params, copies[0]))
        oracle = _OracleAdamW(copies[1], betas, weight_decay=0.1)
        assert paired._size == ADAMW_THREADS_MIN
        state = {k: rng.normal(size=v.shape) for k, v in paired.state_arrays().items()}
        state.update({k: np.abs(v) for k, v in state.items() if k.startswith("v/")})
        for opt in (paired, serial, oracle):
            opt.load_state_arrays(state, first_t - 1)
        steps = 5
        # which corrections reach 1.0 within the steps
        assert crossed == [1.0 - beta ** first_t != 1.0
                           and 1.0 - beta ** (first_t + steps - 1) == 1.0 for beta in betas]
        for step in range(steps):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            lr = 0.01 * (step + 1)
            nn.copy_into(paired.grads, grads)
            paired.step(lr)
            assert two_threads.pairs == step + 1
            monkeypatch.setattr(nn, "ADAMW_THREADS_MIN", math.inf)
            nn.copy_into(serial.grads, grads)
            serial.step(lr)
            monkeypatch.setattr(nn, "ADAMW_THREADS_MIN", ADAMW_THREADS_MIN)
            oracle.step(copies[1], grads, lr)
            assert paired.t == serial.t == oracle.t == first_t + step
            for k in shapes:
                for other, other_params in ((serial, copies[0]), (oracle, copies[1])):
                    np.testing.assert_array_equal(params[k], other_params[k])
                    np.testing.assert_array_equal(paired.m[k], other.m[k])
                    np.testing.assert_array_equal(paired.v[k], other.v[k])

    def test_adamw_bad_gradient_on_two_threads_leaves_state_untouched(self, two_threads,
                                                                      monkeypatch, rng):
        # the step is refused before the update pairs or writes anything,
        # wherever in the blocks the NaN or infinity is
        monkeypatch.setattr(nn, "ADAMW_THREADS_MIN", ADAMW_THREADS_MIN)
        params = {"first": rng.normal(size=7), "p": rng.normal(size=2 ** 17)}
        opt = nn.AdamW(params)
        nn.copy_into(opt.grads, {k: rng.normal(size=v.shape) for k, v in params.items()})
        opt.step(1e-3)
        assert two_threads.pairs == 1
        before = [a.copy() for a in (opt._p, opt._m, opt._v)]
        good = opt.grads["p"].copy()
        for bad in (np.nan, np.inf, -np.inf):
            for where in (0, nn.ADAMW_CHUNK + 5, -1):
                opt.grads["p"][...] = good
                opt.grads["p"][where] = bad
                with pytest.raises(FloatingPointError,
                                   match=r"^non-finite gradient for parameter 'p'$"):
                    opt.step(1e-3)
                assert opt.t == 1 and two_threads.pairs == 1, (bad, where)
                for now, then in zip((opt._p, opt._m, opt._v), before):
                    np.testing.assert_array_equal(now, then)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("paired", [False, True], ids=["serial", "paired"])
    def test_adamw_accepts_a_finite_gradient_whose_square_sum_overflows(self, two_threads,
                                                                        monkeypatch, rng,
                                                                        paired):
        # 1e200 squared is inf: the block is scanned, found finite and updated
        # as the oracle updates it
        monkeypatch.setattr(nn, "ADAMW_THREADS_MIN", ADAMW_THREADS_MIN if paired else math.inf)
        params = {"p": rng.normal(size=2 ** 17)}
        ref = {"p": params["p"].copy()}
        opt, oracle = nn.AdamW(params), _OracleAdamW(ref)
        grads = {"p": rng.normal(size=2 ** 17)}
        grads["p"][nn.ADAMW_CHUNK + 5] = 1e200
        assert not np.isfinite(np.dot(grads["p"], grads["p"]))
        nn.copy_into(opt.grads, grads)
        opt.step(1e-3)
        oracle.step(ref, grads, 1e-3)
        assert opt.t == 1 and two_threads.pairs == paired
        np.testing.assert_array_equal(params["p"], ref["p"])
        np.testing.assert_array_equal(opt.m["p"], oracle.m["p"])
        np.testing.assert_array_equal(opt.v["p"], oracle.v["p"])

    def test_desk_width_packed_pass_bitwise_equal(self, two_threads):
        # 60 desk-shape conversations (H 48, ~40 rows per step): the shape a
        # predict group pairs at, serial and on two threads
        rng = np.random.default_rng(32)
        params = nn.birnn_init(32, 48, 4, rng)
        layout = nn.pack_sequences(rng.integers(5, 16, size=60))
        x = rng.normal(size=(layout.n_rows, 32))
        serial, parallel = two_threads.serial_and_parallel(
            lambda: nn.birnn_forward(params, x, layout=layout))
        _assert_bitwise(serial, parallel)
        assert two_threads.pairs == 5  # the init and the four layers

    def test_callers_on_many_threads_share_the_helper(self, two_threads):
        # more callers than cores, switching often: each still gets its own
        # result, and its own init's bytes
        params = self._params()
        inputs = [np.random.default_rng(30 + k).normal(size=(5 + k, 6)) for k in range(4)]

        def pass_of(x):
            out, caches = nn.birnn_forward(params, x)
            return nn.birnn_backward(params, caches, out)

        def init_of(k):
            return self._bytes(nn.birnn_init(6, 5, 3, np.random.default_rng(30 + k)))

        expected = [(pass_of(x), init_of(k)) for k, x in enumerate(inputs)]
        results = [None] * len(inputs)

        def caller(k):
            for _ in range(20):
                results[k] = (pass_of(inputs[k]), init_of(k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(len(inputs))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for (got, got_init), (want, want_init) in zip(results, expected):
            _assert_bitwise(got, want)
            assert got_init == want_init

    def test_callers_racing_to_the_first_pass_make_one_helper(self, two_threads, monkeypatch):
        # a slow CPU query keeps every caller inside the first-use check at once
        monkeypatch.setattr(nn, "_usable_cpus", lambda: time.sleep(0.05) or 2)
        barrier = threading.Barrier(8)
        pools = []

        def caller():
            barrier.wait(60)
            pools.append(nn._helper())

        callers = [threading.Thread(target=caller) for _ in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        made = {id(pool): pool for pool in pools}
        for pool in made.values():
            pool.shutdown()
        assert not any(t.is_alive() for t in callers)
        assert len(pools) == 8 and list(made.values()) == [nn._helper_pool]

    @pytest.mark.parametrize("cpu_query", ["sched_getaffinity", "cpu_count"])
    def test_one_cpu_makes_no_helper_thread(self, monkeypatch, cpu_query):
        monkeypatch.setattr(nn, "_helper_pool", None)
        if cpu_query == "sched_getaffinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:  # a platform without the affinity call
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        for name in ("LSTM_THREADS_MIN", "ADAMW_THREADS_MIN"):
            monkeypatch.setattr(nn, name, 0)
        threads = set(threading.enumerate())
        params = self._params()
        out, caches = nn.birnn_forward(params, np.ones((3, 6)))
        _, grads = nn.birnn_backward(params, caches, out)
        opt = nn.AdamW(params)
        nn.copy_into(opt.grads, grads)
        opt.step(1e-3)
        assert nn._helper() is None
        assert set(threading.enumerate()) == threads


class TestGradcheck:
    def test_linear_loss_exact(self):
        w = np.array([0.3, -1.2, 2.0])

        def fn(p):
            return float(w @ p["x"]), {"x": w.copy()}

        assert nn.gradcheck(fn, {"x": np.array([1.0, 2.0, 3.0])}) < 1e-10

    def test_dense_softmax_ce_chain(self):
        rng = np.random.default_rng(7)
        params = {"W": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        x = rng.normal(size=(6, 4))
        targets = rng.integers(0, 3, size=6)
        weights = rng.uniform(0.5, 2.0, size=3)

        def fn(p):
            logits = nn.dense_forward(p["W"], p["b"], x)
            loss, dlogits = nn.weighted_ce_batch(logits, targets, weights)
            _, dW, db = nn.dense_backward(p["W"], x, dlogits)
            return loss, {"W": dW, "b": db}

        assert nn.gradcheck(fn, params, epsilon=1e-4) < 1e-5
