"""Network tests: shapes, initialization statistics, hand-rolled gradients
against finite differences, optimizer behavior, binary serialization."""

import re
import struct

import numpy as np
import pytest

from bdrohc.mlp import (
    MlpConfig,
    MlpParams,
    batch_td_loss_grad,
    forward,
    forward_batch,
    init_params,
    load_params,
    params_equal,
    params_lerp,
    save_params,
    sgd_step,
)


def make(widths, seed=0):
    return init_params(MlpConfig(tuple(widths)), np.random.default_rng(seed))


class TestConfig:
    def test_rejects_single_width(self):
        with pytest.raises(ValueError):
            MlpConfig((6,))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MlpConfig((8, 0, 6))

    def test_rejects_wrong_output(self):
        with pytest.raises(ValueError):
            MlpConfig((8, 4, 5))


class TestInit:
    def test_shapes(self):
        p = make([8, 4, 6])
        assert [w.shape for w in p.weights] == [(4, 8), (6, 4)]
        assert [b.shape for b in p.biases] == [(4,), (6,)]
        assert p.widths == (8, 4, 6)

    def test_biases_zero(self):
        p = make([8, 4, 6])
        assert all(np.all(b == 0.0) for b in p.biases)

    def test_uniform_bounds_and_moments(self):
        p = make([100, 200, 6], seed=4)
        w = p.weights[0]
        limit = np.sqrt(6.0 / (100 + 200))
        assert np.all(np.abs(w) <= limit)
        # uniform on [-limit, limit]: mean 0, var limit**2 / 3
        n = w.size
        assert abs(w.mean()) < 3.0 * limit / np.sqrt(3.0 * n)
        assert abs(w.var() - limit * limit / 3.0) < 0.1 * limit * limit / 3.0

    def test_copy_is_independent(self):
        p = make([8, 4, 6])
        q = p.copy()
        q.weights[0][0, 0] += 1.0
        assert p.weights[0][0, 0] != q.weights[0][0, 0]
        assert params_equal(p, p.copy())


class TestForward:
    def test_output_shape(self):
        p = make([8, 4, 6])
        assert forward(p, np.zeros(8)).shape == (6,)
        assert forward_batch(p, np.zeros((3, 8))).shape == (3, 6)

    def test_zero_weights_give_zero_output(self):
        p = make([8, 4, 6])
        z = MlpParams([np.zeros_like(w) for w in p.weights], [b.copy() for b in p.biases])
        assert np.all(forward(z, np.ones(8)) == 0.0)

    def test_batch_matches_single(self):
        p = make([10, 7, 6], seed=2)
        xs = np.random.default_rng(3).normal(size=(5, 10))
        batch = forward_batch(p, xs)
        for i in range(5):
            assert np.allclose(batch[i], forward(p, xs[i]), atol=1e-12)

    def test_wrong_shape_raises(self):
        p = make([8, 4, 6])
        with pytest.raises(ValueError):
            forward(p, np.zeros(9))
        with pytest.raises(ValueError):
            forward_batch(p, np.zeros((3, 9)))
        with pytest.raises(ValueError):
            forward_batch(p, np.zeros(8))

    def test_relu_kills_negative_path(self):
        # single hidden unit with negative pre-activation contributes nothing
        w1 = np.array([[1.0]])
        b1 = np.array([-2.0])
        w2 = np.ones((6, 1))
        b2 = np.zeros(6)
        p = MlpParams([w1, w2], [b1, b2])
        assert np.all(forward(p, np.array([1.0])) == 0.0)
        assert np.allclose(forward(p, np.array([3.0])), 1.0)


def numeric_grad(params, x, action, target, h=1e-5):
    """Central finite differences over every parameter entry."""
    def loss_at(p):
        return batch_td_loss_grad(p, x[None, :], [action], [target])[0]

    d_w = []
    d_b = []
    for li in range(len(params.weights)):
        gw = np.zeros_like(params.weights[li])
        for idx in np.ndindex(*params.weights[li].shape):
            p_hi = params.copy()
            p_hi.weights[li][idx] += h
            p_lo = params.copy()
            p_lo.weights[li][idx] -= h
            gw[idx] = (loss_at(p_hi) - loss_at(p_lo)) / (2.0 * h)
        d_w.append(gw)
        gb = np.zeros_like(params.biases[li])
        for idx in np.ndindex(*params.biases[li].shape):
            p_hi = params.copy()
            p_hi.biases[li][idx] += h
            p_lo = params.copy()
            p_lo.biases[li][idx] -= h
            gb[idx] = (loss_at(p_hi) - loss_at(p_lo)) / (2.0 * h)
        d_b.append(gb)
    return d_w, d_b


def grad_close(analytic, numeric, tol=1e-4):
    a_w, a_b = analytic
    n_w, n_b = numeric
    for a, n in list(zip(a_w, n_w)) + list(zip(a_b, n_b)):
        scale = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-8)
        if np.max(np.abs(a - n)) / scale > tol:
            return False
    return True


def away_from_kinks(params, x, margin=1e-3):
    """True when every hidden pre-activation clears the ReLU corner, where
    the loss is differentiable and finite differences are trustworthy."""
    h = np.asarray(x, dtype=float)
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = w @ h + b
        if np.min(np.abs(z)) < margin:
            return False
        h = np.maximum(z, 0.0)
    return True


def smooth_point(params, dim, rng, tries=50):
    for _ in range(tries):
        x = rng.normal(size=dim)
        if away_from_kinks(params, x):
            return x
    raise AssertionError("could not find an input clear of every ReLU corner")


class TestGradients:
    def test_finite_difference_small_nets(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            depth = int(rng.integers(2, 4))
            widths = [int(rng.integers(2, 6)) for _ in range(depth)] + [6]
            p = make(widths, seed=100 + trial)
            # jitter biases so pre-activations are generically off the corner
            for b in p.biases:
                b += 0.1 * rng.normal(size=b.shape)
            x = smooth_point(p, widths[0], rng)
            action = int(rng.integers(6))
            target = float(rng.normal())
            loss, grads = batch_td_loss_grad(p, x[None, :], [action], [target])
            assert loss >= 0.0
            assert grad_close(grads, numeric_grad(p, x, action, target))

    def test_finite_difference_batch(self):
        rng = np.random.default_rng(11)
        p = make([5, 4, 6], seed=42)
        xs = rng.normal(size=(7, 5))
        actions = rng.integers(6, size=7)
        targets = rng.normal(size=7)
        _, grads = batch_td_loss_grad(p, xs, actions, targets)
        # compare against the mean of per-sample numeric gradients
        acc_w = [np.zeros_like(w) for w in p.weights]
        acc_b = [np.zeros_like(b) for b in p.biases]
        for i in range(7):
            n_w, n_b = numeric_grad(p, xs[i], int(actions[i]), float(targets[i]))
            for a, n in zip(acc_w, n_w):
                a += n / 7.0
            for a, n in zip(acc_b, n_b):
                a += n / 7.0
        assert grad_close(grads, (acc_w, acc_b))

    def test_batch_loss_is_mean_of_singles(self):
        p = make([5, 4, 6], seed=1)
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(4, 5))
        actions = [0, 3, 5, 1]
        targets = [0.5, -1.0, 2.0, 0.0]
        batch_loss, _ = batch_td_loss_grad(p, xs, actions, targets)
        singles = [
            batch_td_loss_grad(p, xs[i][None, :], [actions[i]], [targets[i]])[0] for i in range(4)
        ]
        assert batch_loss == pytest.approx(np.mean(singles), rel=1e-12)

    def test_zero_gradient_at_fixed_point(self):
        p = make([4, 3, 6], seed=5)
        x = np.ones(4)
        out = forward(p, x)
        loss, (gw, gb) = batch_td_loss_grad(p, x[None, :], [2], [float(out[2])])
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in gw)
        assert all(np.all(g == 0.0) for g in gb)

    def test_only_selected_unit_feeds_back(self):
        p = make([4, 3, 6], seed=6)
        x = np.ones(4)
        _, (gw, _) = batch_td_loss_grad(p, x[None, :], [1], [10.0])
        # output rows other than the chosen action receive no gradient
        other_rows = [r for r in range(6) if r != 1]
        assert np.all(gw[-1][other_rows] == 0.0)
        assert np.any(gw[-1][1] != 0.0)

    def test_empty_batch_rejected(self):
        p = make([4, 3, 6])
        with pytest.raises(ValueError):
            batch_td_loss_grad(p, np.zeros((0, 4)), [], [])


class TestLerp:
    def test_endpoints(self):
        a = make([4, 3, 6], seed=30)
        b = make([4, 3, 6], seed=31)
        assert params_equal(params_lerp(a, b, 1.0), b)
        assert params_equal(params_lerp(a, b, 0.0), a)

    def test_blend_arithmetic(self):
        a = make([4, 3, 6], seed=30)
        b = make([4, 3, 6], seed=31)
        mid = params_lerp(a, b, 0.25)
        for la, lb, lm in zip(a.weights, b.weights, mid.weights):
            assert np.allclose(lm, 0.75 * la + 0.25 * lb)

    def test_result_is_fresh(self):
        a = make([4, 3, 6], seed=30)
        b = make([4, 3, 6], seed=31)
        mid = params_lerp(a, b, 0.5)
        mid.weights[0][0, 0] += 100.0
        assert a.weights[0][0, 0] != mid.weights[0][0, 0]
        assert b.weights[0][0, 0] != mid.weights[0][0, 0]


    def test_in_place_blend_matches_fresh(self):
        a = make([4, 3, 6], seed=30)
        b = make([4, 3, 6], seed=31)
        fresh = params_lerp(a, b, 0.3)
        out = params_lerp(a, b, 0.3, out=a)
        assert out is a
        assert params_equal(a, fresh)

    def test_scratch_blend_matches_fresh(self):
        a = make([4, 3, 6], seed=30)
        b = make([4, 3, 6], seed=31)
        fresh = params_lerp(a, b, 0.3)
        params_lerp(a, b, 0.3, out=a, scratch=make([4, 3, 6], seed=32))
        assert params_equal(a, fresh)


class TestSgd:
    def test_zero_rate_is_identity(self):
        p = make([4, 3, 6], seed=7)
        _, grads = batch_td_loss_grad(p, np.ones(4)[None, :], [0], [5.0])
        q = sgd_step(p, grads, 0.0)
        assert params_equal(p, q)

    def test_step_leaves_input_untouched(self):
        p = make([4, 3, 6], seed=7)
        before = p.copy()
        _, grads = batch_td_loss_grad(p, np.ones(4)[None, :], [0], [5.0])
        sgd_step(p, grads, 0.1)
        assert params_equal(p, before)

    def test_in_place_step_matches_fresh(self):
        # g *= eta; w -= g rounds exactly as w - eta * g
        p = make([4, 3, 6], seed=7)
        x = np.random.default_rng(3).normal(size=(5, 4))
        _, grads = batch_td_loss_grad(p, x, [0, 1, 2, 3, 4], [5.0, -1.0, 0.5, 2.0, 0.0])
        fresh = sgd_step(p, grads, 0.037)
        assert sgd_step(p, grads, 0.037, out=p) is p
        assert params_equal(p, fresh)

    def test_gradient_into_buffer_matches_fresh(self):
        p = make([4, 3, 6], seed=7)
        x = np.random.default_rng(4).normal(size=(5, 4))
        args = (p, x, [0, 1, 2, 3, 4], [5.0, -1.0, 0.5, 2.0, 0.0])
        loss, (gw, gb) = batch_td_loss_grad(*args)
        buf = make([4, 3, 6], seed=8)
        loss_buf, (bw, bb) = batch_td_loss_grad(*args, out=buf)
        assert loss_buf == loss
        assert all(o is n for o, n in zip(buf.weights + buf.biases, bw + bb))
        assert all(np.array_equal(o, n) for o, n in zip(gw + gb, bw + bb))

    def test_descends_on_fixed_target(self):
        p = make([6, 8, 6], seed=8)
        x = np.random.default_rng(9).normal(size=6)
        target = 3.0
        losses = []
        for _ in range(500):
            loss, grads = batch_td_loss_grad(p, x[None, :], [4], [target])
            losses.append(loss)
            p = sgd_step(p, grads, 0.01)
        # overwhelmingly monotone and convergent
        drops = sum(b <= a for a, b in zip(losses, losses[1:]))
        assert drops >= 0.95 * (len(losses) - 1)
        assert losses[-1] < 1e-3


class TestFloat32:
    """The kernels follow the dtype of the params: float32 params give
    float32 results, which agree with the float64 path to float32
    precision."""

    WIDTHS = [10, 16, 8, 6]

    def pair(self, seed=20):
        p64 = make(self.WIDTHS, seed=seed)
        for b in p64.biases:
            b += 0.1 * np.random.default_rng(seed + 1).normal(size=b.shape)
        return p64, p64.astype(np.float32)

    def batch(self, seed=21, rows=7):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(rows, 10)), rng.integers(6, size=rows), rng.normal(size=rows)

    def test_astype_rounds_every_array(self):
        p64, p32 = self.pair()
        assert all(a.dtype == np.float32 for a in p32.weights + p32.biases)
        for a, b in zip(p64.weights + p64.biases, p32.weights + p32.biases):
            assert np.array_equal(a.astype(np.float32), b)

    def test_forward_follows_params(self):
        p64, p32 = self.pair()
        x, _, _ = self.batch()
        one = forward(p32, x[0])
        many = forward_batch(p32, x)
        assert one.dtype == np.float32 and many.dtype == np.float32
        assert np.allclose(one, forward(p64, x[0]), rtol=1e-5, atol=1e-5)
        assert np.allclose(many, forward_batch(p64, x), rtol=1e-5, atol=1e-5)

    def test_gradient_follows_params(self):
        p64, p32 = self.pair()
        x, actions, targets = self.batch()
        loss64, (gw64, gb64) = batch_td_loss_grad(p64, x, actions, targets)
        loss32, (gw32, gb32) = batch_td_loss_grad(p32, x, actions, targets)
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        for a, b in zip(gw32 + gb32, gw64 + gb64):
            assert a.dtype == np.float32
            assert np.allclose(a, b, rtol=1e-4, atol=1e-5)

    def test_gradient_into_float32_buffer(self):
        _, p32 = self.pair()
        x, actions, targets = self.batch()
        loss, (gw, gb) = batch_td_loss_grad(p32, x, actions, targets)
        buf = p32.copy()
        loss_buf, (bw, bb) = batch_td_loss_grad(p32, x, actions, targets, out=buf)
        assert loss_buf == loss
        assert all(o is n for o, n in zip(buf.weights + buf.biases, bw + bb))
        assert all(a.dtype == np.float32 for a in bw + bb)
        assert all(np.array_equal(o, n) for o, n in zip(gw + gb, bw + bb))

    def test_in_place_sgd_step_keeps_float32(self):
        p64, p32 = self.pair()
        x, actions, targets = self.batch()
        stepped64 = sgd_step(p64, batch_td_loss_grad(p64, x, actions, targets)[1], 0.05)
        _, grads = batch_td_loss_grad(p32, x, actions, targets)
        fresh = sgd_step(p32, grads, 0.05)
        assert sgd_step(p32, grads, 0.05, out=p32) is p32
        assert all(a.dtype == np.float32 for a in p32.weights + p32.biases + fresh.weights)
        # g *= eta; w -= g rounds exactly as w - eta * g in float32 too
        assert params_equal(p32, fresh)
        for a, b in zip(p32.weights + p32.biases, stepped64.weights + stepped64.biases):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_in_place_lerp_keeps_float32(self):
        a64, a32 = self.pair(seed=30)
        b64, b32 = self.pair(seed=31)
        blend64 = params_lerp(a64, b64, 0.3)
        fresh = params_lerp(a32, b32, 0.3)
        params_lerp(a32, b32, 0.3, out=a32, scratch=b32.copy())
        assert all(a.dtype == np.float32 for a in a32.weights + a32.biases + fresh.biases)
        assert params_equal(a32, fresh)
        for a, b in zip(a32.weights + a32.biases, blend64.weights + blend64.biases):
            assert np.allclose(a, b, rtol=1e-6, atol=1e-7)


def old_format_bytes(params) -> bytes:
    """A parameter file as written before files recorded their dtype."""
    widths = params.widths
    data = b"QNET" + struct.pack("<q", len(widths)) + struct.pack(f"<{len(widths)}q", *widths)
    for w, b in zip(params.weights, params.biases):
        data += w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
    return data


class TestSerialization:
    @staticmethod
    def check_round_trip(tmp_path, dtype):
        p = make([7, 5, 3, 6], seed=12)
        p.biases[0][:] = np.random.default_rng(13).normal(size=5)
        p = p.astype(dtype)
        path = tmp_path / "net.bin"
        save_params(p, path)
        q = load_params(path)
        assert q.widths == p.widths
        assert params_equal(p, q)
        assert all(a.dtype == dtype for a in q.weights + q.biases)

    def test_round_trip_exact(self, tmp_path):
        self.check_round_trip(tmp_path, np.float64)

    def test_round_trip_exact_in_float32(self, tmp_path):
        self.check_round_trip(tmp_path, np.float32)

    def test_float32_file_is_half_the_payload(self, tmp_path):
        p = make([7, 5, 3, 6], seed=12)
        save_params(p, tmp_path / "f8.bin")
        save_params(p.astype(np.float32), tmp_path / "f4.bin")
        header = 4 + 8 + 8 * len(p.widths)
        f8 = (tmp_path / "f8.bin").stat().st_size - header
        f4 = (tmp_path / "f4.bin").stat().st_size - header
        assert f8 == 2 * f4

    def test_file_written_before_dtypes_were_recorded_loads_as_float64(self, tmp_path):
        p = make([7, 5, 3, 6], seed=14)
        path = tmp_path / "old.bin"
        path.write_bytes(old_format_bytes(p))
        q = load_params(path)
        assert all(a.dtype == np.float64 for a in q.weights + q.biases)
        assert params_equal(p, q)
        # a float64 network is still written in that format, byte for byte
        save_params(p, tmp_path / "new.bin")
        assert (tmp_path / "new.bin").read_bytes() == path.read_bytes()

    def test_rejects_unsupported_dtype(self, tmp_path):
        p = make([4, 3, 6]).astype(np.float16)
        with pytest.raises(ValueError, match="float16"):
            save_params(p, tmp_path / "net.bin")

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} is not a parameter file$"):
            load_params(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        p = make([4, 3, 6])
        path = tmp_path / "net.bin"
        save_params(p, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match=rf"^trailing bytes in parameter file {re.escape(str(path))}$"):
            load_params(path)

    @pytest.mark.parametrize("where", ["header", "weights", "last bias"])
    def test_rejects_truncated_file_naming_it(self, tmp_path, where):
        p = make([4, 3, 6])
        path = tmp_path / "net.bin"
        save_params(p, path)
        data = path.read_bytes()
        # magic, count and three widths take 36 bytes; 4x3 weights follow
        keep = {"header": 10, "weights": 36 + 8 * 5, "last bias": len(data) - 8}[where]
        path.write_bytes(data[:keep])
        with pytest.raises(ValueError, match=rf"^parameter file {re.escape(str(path))} is truncated$"):
            load_params(path)

    def test_rejects_truncated_float32_file_naming_it(self, tmp_path):
        p = make([4, 3, 6]).astype(np.float32)
        path = tmp_path / "net.bin"
        save_params(p, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match=rf"^parameter file {re.escape(str(path))} is truncated$"):
            load_params(path)

    def test_loaded_params_are_writable(self, tmp_path):
        p = make([4, 3, 6])
        path = tmp_path / "net.bin"
        save_params(p, path)
        q = load_params(path)
        q.weights[0][0, 0] = 99.0  # must not raise (buffers were copied)
        assert q.weights[0][0, 0] == 99.0
