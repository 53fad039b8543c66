import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecpe import nn

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
            weighted = nn.weighted_cross_entropy(logits, t, np.ones(7))
            plain = float(-nn.log_softmax(logits)[t])
            assert weighted == plain  # bit-for-bit

    def test_uniform_logits_weight_two(self):
        loss = nn.weighted_cross_entropy(np.zeros(7), 3, np.full(7, 2.0))
        assert loss == pytest.approx(2.0 * math.log(7.0), rel=1e-12)

    def test_peaked_logits_loss_vanishes(self):
        losses = [
            nn.weighted_cross_entropy(scale * np.eye(7)[2], 2, np.ones(7))
            for scale in (1.0, 10.0, 50.0)
        ]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-12

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
        assert nn.binary_cross_entropy(0.0, 0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert nn.binary_cross_entropy(0.0, 1) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_confident_correct_limit(self):
        assert nn.binary_cross_entropy(40.0, 1) < 1e-15
        assert nn.binary_cross_entropy(-40.0, 0) < 1e-15

    def test_closed_form(self):
        expected = 2.0 + math.log1p(math.exp(-2.0))
        assert nn.binary_cross_entropy(2.0, 0) == pytest.approx(expected, rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(-700, 700, allow_nan=False))
    def test_logit_symmetry(self, z):
        assert nn.binary_cross_entropy(z, 1) == nn.binary_cross_entropy(-z, 0)

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
        params = nn.DenseParams(np.eye(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(nn.dense_forward(params, x), x)

    def test_constant(self):
        params = nn.DenseParams(np.zeros((3, 2)), np.array([4.0, -1.0]))
        np.testing.assert_array_equal(
            nn.dense_forward(params, np.ones(3)), [4.0, -1.0])

    def test_hand_computed(self):
        params = nn.DenseParams(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(
            nn.dense_forward(params, np.array([1.0, 2.0])), [2.0, 5.0])

    def test_row_batch_consistent_with_single(self):
        rng = np.random.default_rng(3)
        params = nn.DenseParams(rng.normal(size=(4, 3)), rng.normal(size=3))
        X = rng.normal(size=(5, 4))
        batch = nn.dense_forward(params, X)
        for i in range(5):
            np.testing.assert_allclose(batch[i], nn.dense_forward(params, X[i]), rtol=1e-15)

    def test_width_mismatch(self):
        params = nn.DenseParams(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="width"):
            nn.dense_forward(params, np.zeros(4))


class TestAdamW:
    def test_zero_grads_no_decay_unchanged(self):
        params = {"p": np.array([1.0, -2.0])}
        opt = nn.AdamW(params, nn.AdamWConfig(weight_decay=0.0))
        opt.step(params, {"p": np.zeros(2)})
        np.testing.assert_array_equal(params["p"], [1.0, -2.0])

    def test_single_step_unit_direction(self):
        # bias-corrected m/v make the first step lr * g/|g| for scalar params
        params = {"p": np.array([1.0])}
        opt = nn.AdamW(params, nn.AdamWConfig(lr=0.1, weight_decay=0.0, eps=1e-12))
        opt.step(params, {"p": np.array([1.0])})
        assert params["p"][0] == pytest.approx(0.9, abs=1e-9)

    def test_decoupled_decay_factor(self):
        params = {"p": np.array([2.0])}
        opt = nn.AdamW(params, nn.AdamWConfig(lr=0.1, weight_decay=0.5))
        for expected in (2.0 * 0.95, 2.0 * 0.95**2):
            opt.step(params, {"p": np.zeros(1)})
            assert params["p"][0] == pytest.approx(expected, rel=1e-12)

    def test_non_finite_gradient_names_parameter(self):
        params = {"weights": np.ones(2)}
        opt = nn.AdamW(params)
        with pytest.raises(FloatingPointError, match="weights"):
            opt.step(params, {"weights": np.array([1.0, np.nan])})

    def test_bitwise_equal_to_oracle(self, rng):
        # "big" spans two full blocks and a ragged third
        shapes = {"big": (3, (2 * nn.ADAMW_CHUNK + 123) // 3), "W": (7, 5),
                  "b": (5,), "s": ()}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        assert params["big"].size > 2 * nn.ADAMW_CHUNK
        assert params["big"].size % nn.ADAMW_CHUNK
        ref = {k: v.copy() for k, v in params.items()}
        config = nn.AdamWConfig(lr=0.05, weight_decay=0.1)
        opt = nn.AdamW(params, config)
        oracle = _OracleAdamW(ref, config)
        for step in range(5):
            grads = {k: rng.normal(size=s) * 10.0 ** (step - 2) for k, s in shapes.items()}
            lr = 0.05 * (step + 1) / 5
            opt.step(params, grads, lr)
            oracle.step(ref, grads, lr)
        assert opt.t == oracle.t == 5
        for k in shapes:
            np.testing.assert_array_equal(params[k], ref[k])
            np.testing.assert_array_equal(opt.m[k], oracle.m[k])
            np.testing.assert_array_equal(opt.v[k], oracle.v[k])

    @pytest.mark.parametrize("bad_grad,error", [
        (np.array([0, 0, np.inf, 0, 0]), FloatingPointError),
        (np.zeros((5, 1)), ValueError),
    ])
    def test_bad_gradient_leaves_state_untouched(self, bad_grad, error, rng):
        params = {"first": rng.normal(size=(4, 3)), "second": rng.normal(size=5)}
        opt = nn.AdamW(params)
        opt.step(params, {k: rng.normal(size=v.shape) for k, v in params.items()})
        before = ({k: v.copy() for k, v in params.items()},
                  {k: v.copy() for k, v in opt.m.items()},
                  {k: v.copy() for k, v in opt.v.items()})
        grads = {"first": rng.normal(size=(4, 3)), "second": bad_grad}
        with pytest.raises(error, match="'second'"):
            opt.step(params, grads)
        assert opt.t == 1
        for now, then in zip((params, opt.m, opt.v), before):
            for k in then:
                np.testing.assert_array_equal(now[k], then[k])


class _OracleAdamW(nn.AdamW):
    """The original one-pass-per-op step, kept as the reference."""

    def step(self, params, grads, lr=None):
        cfg = self.config
        if lr is None:
            lr = cfg.lr
        b1, b2 = cfg.betas
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
            p -= lr * cfg.weight_decay * p
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


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


def _swap_directions(stack, params):
    """Parameter tree that runs the stack 'backwards': directions exchanged and,
    above layer 0, the input-channel halves of W rows exchanged to follow the
    swapped concatenation order."""
    H = stack.hidden_size
    swapped = {}
    for layer in range(stack.n_layers):
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


class TestBiRNN:
    def _stack_and_params(self, input_size=3, hidden=4, layers=2, seed=0):
        stack = nn.BiRNNStack(input_size=input_size, hidden_size=hidden, n_layers=layers)
        params = nn.birnn_init(stack, np.random.default_rng(seed))
        return stack, params

    def test_single_step_depends_only_on_itself(self):
        stack, params = self._stack_and_params()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3))
        out, _ = nn.birnn_forward(stack, params, x)
        assert out.shape == (1, 8)

    def test_zero_weights_zero_outputs(self):
        stack, params = self._stack_and_params()
        zeros = {k: np.zeros_like(v) for k, v in params.items()}
        x = np.random.default_rng(2).normal(size=(5, 3))
        out, _ = nn.birnn_forward(stack, zeros, x)
        np.testing.assert_array_equal(out, np.zeros((5, 8)))

    def test_direction_symmetry(self):
        # reversing the input and exchanging direction parameters reverses the
        # output sequence (with the two direction blocks exchanged)
        stack, params = self._stack_and_params(layers=3)
        H = stack.hidden_size
        x = np.random.default_rng(3).normal(size=(6, 3))
        out, _ = nn.birnn_forward(stack, params, x)
        swapped_out, _ = nn.birnn_forward(stack, _swap_directions(stack, params), x[::-1])
        np.testing.assert_allclose(
            swapped_out, np.concatenate([out[:, H:], out[:, :H]], axis=1)[::-1],
            atol=1e-12,
        )

    def test_information_flows_both_directions(self):
        stack, params = self._stack_and_params()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 3))
        base, _ = nn.birnn_forward(stack, params, x)
        for t in (0, 6):
            bumped = x.copy()
            bumped[t] += 0.5
            out, _ = nn.birnn_forward(stack, params, bumped)
            other_end = 6 - t
            assert not np.allclose(out[other_end], base[other_end])

    def test_gradcheck_two_layer(self):
        # squared-sum head over the BiRNN outputs, T=5 hidden 4
        stack, params = self._stack_and_params(input_size=3, hidden=4, layers=2, seed=5)
        x = np.random.default_rng(6).normal(size=(5, 3))

        def loss_and_grads(p):
            out, caches = nn.birnn_forward(stack, p, x)
            loss = 0.5 * float(np.sum(out**2))
            _, grads = nn.birnn_backward(stack, p, caches, out)
            return loss, grads

        assert nn.gradcheck(loss_and_grads, params, epsilon=1e-4) < 1e-4

    def test_dropout_requires_rng(self):
        stack = nn.BiRNNStack(input_size=3, hidden_size=2, n_layers=2,
                              inter_layer_dropout=0.5)
        params = nn.birnn_init(stack, np.random.default_rng(0))
        x = np.zeros((2, 3))
        with pytest.raises(ValueError, match="rng"):
            nn.birnn_forward(stack, params, x, training=True)

    def test_bad_shapes(self):
        stack, params = self._stack_and_params()
        with pytest.raises(ValueError):
            nn.birnn_forward(stack, params, np.zeros((0, 3)))
        with pytest.raises(ValueError):
            nn.birnn_forward(stack, params, np.zeros((2, 5)))


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
            dense = nn.DenseParams(p["W"], p["b"])
            logits = nn.dense_forward(dense, x)
            loss, dlogits = nn.weighted_ce_batch(logits, targets, weights)
            _, dW, db = nn.dense_backward(dense, x, dlogits)
            return loss, {"W": dW, "b": db}

        assert nn.gradcheck(fn, params, epsilon=1e-4) < 1e-5
