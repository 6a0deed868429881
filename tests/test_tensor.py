import numpy as np
import pytest

from melcodec import tensor as T
from melcodec.tensor import Tensor

from helpers import gradcheck


class TestElementwise:
    def test_add_mul_grads(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        gradcheck(lambda x, y: ((x * y + x) * (x - y)).sum(), [a, b])

    def test_broadcasting_grads(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 3, 5)), rng.normal(size=(3, 1))
        gradcheck(lambda x, y: (x * y).sum(), [a, b])
        gradcheck(lambda x, y: (x / (y + 10.0)).sum(), [a, b])

    def test_unary_grads(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3)) * 0.5
        gradcheck(lambda x: x.exp().sum(), [a])
        gradcheck(lambda x: (x * x + 1.0).log().sum(), [a])
        gradcheck(lambda x: x.sin().sum(), [a])
        gradcheck(lambda x: (x * x + 0.5).sqrt().sum(), [a])
        gradcheck(lambda x: x.sigmoid().sum(), [a])
        gradcheck(lambda x: T.gelu(x).sum(), [a])
        gradcheck(lambda x: T.silu(x).sum(), [a])

    def test_abs_grad_away_from_zero(self):
        a = np.array([[1.5, -2.0], [0.25, -0.75]])
        gradcheck(lambda x: x.abs().sum(), [a])

    def test_pow_grad(self):
        a = np.abs(np.random.default_rng(3).normal(size=(5,))) + 0.5
        gradcheck(lambda x: (x ** 3).sum(), [a])

    def test_sigmoid_stable_at_extremes(self):
        x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        y = x.sigmoid()
        np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0])


class TestShapeOps:
    def test_reshape_transpose_grads(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(2, 3, 4))
        gradcheck(lambda x: (x.reshape(6, 4) * 2.0).sum(), [a])
        gradcheck(lambda x: (x.transpose(2, 0, 1) ** 2).sum(), [a])

    def test_concat_narrow_grads(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        gradcheck(lambda x, y: (T.concat([x, y], axis=1) ** 2).sum(), [a, b])
        gradcheck(lambda x: (T.narrow(x, 1, 1, 2) ** 2).sum(), [a])

    def test_index_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([0, 2, 2, 1])
        out = T.index_rows(table, idx)
        np.testing.assert_array_equal(out.data, table.data[idx])
        T.backward((out * out).sum())
        expected = np.zeros((4, 3))
        np.add.at(expected, idx, 2 * table.data[idx])
        np.testing.assert_allclose(table.grad, expected)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(5, 9)) * 4.0)
        s = T.softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_softmax_grad(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        gradcheck(lambda x: (T.softmax(x, axis=-1) * w).sum(), [a])


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(8).normal(size=(3, 3))
        out = matout = T.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_allclose(matout.data, a)
        assert out.data.shape == (3, 3)

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_allclose((a @ b).data, [[17.0], [39.0]])

    def test_zero_matrix(self):
        a = np.random.default_rng(9).normal(size=(2, 4))
        np.testing.assert_array_equal(
            T.matmul(Tensor(np.zeros((3, 2))), Tensor(a)).data, np.zeros((3, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_batched_grads(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))
        gradcheck(lambda x, y: (T.matmul(x, y) ** 2).sum(), [a, b])

    def test_batched_against_2d_rhs(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
        gradcheck(lambda x, y: (T.matmul(x, y) ** 2).sum(), [a, b])


def composed_attention(q, k, v, scale):
    """The matmul -> scale -> softmax -> matmul chain `attention` replaces."""
    weights = T.softmax(T.matmul(q, k.transpose(0, 1, 3, 2)) * scale, axis=-1)
    return T.matmul(weights, v)


class TestAttention:
    @pytest.mark.parametrize("recording", [True, False])
    def test_one_block_equals_chain_bitwise(self, recording):
        rng = np.random.default_rng(40)
        arrays = [rng.normal(size=(3, 2, 100, 16)) for _ in range(3)]
        g = rng.normal(size=(3, 2, 100, 16))
        results = []
        for op in (T.attention, composed_attention):
            qkv = [Tensor(a, requires_grad=recording) for a in arrays]
            out = op(*qkv, 0.25)
            if recording:
                T.backward((out * g).sum())
            results.append([out.data] + [t.grad for t in qkv if recording])
        for ours, chain in zip(*results):
            np.testing.assert_array_equal(ours, chain)

    def test_row_blocks_close_to_chain(self):
        rng = np.random.default_rng(41)
        q, k, v = (Tensor(rng.normal(size=(1, 2, 1500, 16))) for _ in range(3))
        with T.no_grad():
            np.testing.assert_allclose(T.attention(q, k, v, 0.25).data,
                                       composed_attention(q, k, v, 0.25).data,
                                       rtol=0, atol=1e-12)

    def test_grads(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(size=(2, 2, 5, 3)) for _ in range(3)]
        w = rng.normal(size=(2, 2, 5, 3))
        gradcheck(lambda q, k, v: (T.attention(q, k, v, 0.7) * w).sum(), arrays)


class TestConv1d:
    def test_identity_kernel(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        k = Tensor(np.array([[[1.0]]]))
        np.testing.assert_allclose(T.conv1d(x, k).data, [[[1.0, 2.0, 3.0, 4.0]]])

    def test_sliding_sum_with_padding(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        k = Tensor(np.ones((1, 1, 3)))
        np.testing.assert_allclose(T.conv1d(x, k, padding=1).data, [[[3.0, 6.0, 5.0]]])

    def test_downsample_length(self):
        x = Tensor(np.zeros((1, 1, 100)))
        k = Tensor(np.zeros((1, 1, 7)))
        assert T.conv1d(x, k, stride=4, padding=3).data.shape[-1] == 25

    def test_grouped_conv_grads(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 4, 9))
        w = rng.normal(size=(4, 1, 3))
        b = rng.normal(size=(4,))
        gradcheck(lambda a, c, d: (T.conv1d(a, c, d, stride=2, padding=1, groups=4) ** 2).sum(),
                  [x, w, b])

    def test_strided_conv_grads(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 8))
        w = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=(5,))
        gradcheck(lambda a, c, d: (T.conv1d(a, c, d, stride=3, padding=2) ** 2).sum(),
                  [x, w, b])

    def test_linearity(self):
        rng = np.random.default_rng(14)
        x, y = rng.normal(size=(1, 2, 10)), rng.normal(size=(1, 2, 10))
        w = rng.normal(size=(3, 2, 5))
        alpha, beta = 0.37, -1.9
        lhs = T.conv1d(Tensor(alpha * x + beta * y), Tensor(w), padding=2).data
        rhs = (alpha * T.conv1d(Tensor(x), Tensor(w), padding=2).data
               + beta * T.conv1d(Tensor(y), Tensor(w), padding=2).data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            T.conv1d(Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((2, 2, 3))))
        with pytest.raises(ValueError):
            T.conv1d(Tensor(np.zeros((1, 3, 8))), Tensor(np.zeros((2, 3, 3))), groups=2)
        with pytest.raises(ValueError):
            T.conv1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 5))))


class TestConvTranspose1d:
    def test_single_element(self):
        x = Tensor(np.array([[[2.0]]]))
        w = Tensor(np.array([[[3.0]]]))
        np.testing.assert_allclose(T.conv_transpose1d(x, w).data, [[[6.0]]])

    def test_upsample_length(self):
        x = Tensor(np.zeros((1, 2, 25)))
        w = Tensor(np.zeros((2, 3, 16)))
        assert T.conv_transpose1d(x, w, stride=4, padding=6).data.shape == (1, 3, 100)

    def test_zero_input_gives_bias(self):
        x = Tensor(np.zeros((2, 2, 5)))
        w = Tensor(np.random.default_rng(15).normal(size=(2, 3, 4)))
        b = Tensor(np.array([1.0, -2.0, 0.5]))
        out = T.conv_transpose1d(x, w, b, stride=2)
        assert np.allclose(out.data, b.data[None, :, None])

    def test_grads(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 3, 6))
        w = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(2,))
        gradcheck(lambda a, c, d: (T.conv_transpose1d(a, c, d, stride=2, padding=1) ** 2).sum(),
                  [x, w, b])


class TestReduceLoss:
    def test_equal_inputs_zero(self):
        a = Tensor(np.random.default_rng(17).normal(size=(4,)))
        for kind in ("l1", "l2", "mse"):
            assert T.reduce_loss(kind, a, a).item() == 0.0

    def test_hand_values(self):
        a, b = Tensor([0.0, 0.0]), Tensor([3.0, 4.0])
        assert T.reduce_loss("l2", a, b).item() == pytest.approx(12.5)
        assert T.reduce_loss("l1", a, b).item() == pytest.approx(3.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.reduce_loss("l1", Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_grads_flow_to_both(self):
        rng = np.random.default_rng(18)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        gradcheck(lambda x, y: T.reduce_loss("mse", x, y), [a, b])


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward((x * x).sum())
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_conv_loss_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(1, 2, 8))
        k = rng.normal(size=(3, 2, 3))
        y = rng.normal(size=(1, 3, 8))
        gradcheck(lambda a, b: T.reduce_loss("l2", T.conv1d(a, b, padding=1), Tensor(y)),
                  [x, k])

    def test_unused_leaf_has_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        T.backward((x * x).sum())
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_fresh_leaf_holds_no_gradient_array(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        assert x._grad is None
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])
        x.zero_grad()
        assert x._grad is None

    def test_shared_subexpression_visited_once(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * 2.0
        z = x * 3.0
        T.backward((y + z).sum())
        np.testing.assert_allclose(x.grad, [5.0])

    def test_accumulation_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        T.backward((x * x).sum())
        T.backward((x * x).sum())
        np.testing.assert_allclose(x.grad, [4.0])

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            T.backward(x * x)

    def test_topo_order_visits_parents_first(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = (y + x).sum()
        order = T.topo_order(z)
        positions = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert positions[id(parent)] < positions[id(node)]
        assert len(order) == len({id(n) for n in order})

    def test_detach_blocks_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        T.backward((x * y.detach()).sum())
        np.testing.assert_allclose(x.grad, [6.0])


class TestDeterminismAndFiniteness:
    def test_forward_determinism(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(2, 3, 32))
        w = rng.normal(size=(4, 3, 7))
        out1 = T.conv1d(Tensor(x), Tensor(w), padding=3).data
        out2 = T.conv1d(Tensor(x), Tensor(w), padding=3).data
        assert np.array_equal(out1, out2)

    def test_nonfinite_forward_raises(self):
        x = Tensor([1000.0])
        with pytest.raises(FloatingPointError):
            x.exp()
        with pytest.raises(FloatingPointError):
            Tensor([0.0]).log()


class TestAdamW:
    def test_zero_grad_no_decay_unchanged(self):
        p = {"w": np.array([1.0, -2.0])}
        g = {"w": np.zeros(2)}
        T.adamw_step(p, g, {}, lr=0.1)
        np.testing.assert_array_equal(p["w"], [1.0, -2.0])

    def test_single_scalar_hand_step(self):
        lr, b1, b2, eps = 0.01, 0.8, 0.99, 1e-8
        grad = 0.37
        p = {"w": np.array([2.0])}
        state: dict = {}
        T.adamw_step(p, {"w": np.array([grad])}, state, lr, b1, b2, 0.0, eps)
        m_hat = (1 - b1) * grad / (1 - b1)
        v_hat = (1 - b2) * grad * grad / (1 - b2)
        expected = 2.0 - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(p["w"], [expected], rtol=1e-14)

    def test_decoupled_decay_with_zero_grad(self):
        p = {"w": np.array([4.0])}
        T.adamw_step(p, {"w": np.zeros(1)}, {}, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(p["w"], [4.0 * (1 - 0.1 * 0.5)])

    def test_nonfinite_grad_raises(self):
        with pytest.raises(FloatingPointError):
            T.adamw_step({"w": np.zeros(1)}, {"w": np.array([np.nan])}, {}, lr=0.1)

    def test_determinism(self):
        def run():
            p = {"w": np.array([1.0, 2.0, 3.0])}
            state: dict = {}
            for i in range(5):
                g = {"w": np.array([0.1, -0.2, 0.3]) * (i + 1)}
                T.adamw_step(p, g, state, lr=0.05, weight_decay=0.01)
            return p["w"]

        assert np.array_equal(run(), run())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        params = {
            "enc/w": rng.normal(size=(3, 4, 5)),
            "enc/b": rng.normal(size=(4,)),
            "scalar": np.array(2.5),
        }
        path = tmp_path / "model.fmck"
        T.save_checkpoint(path, params)
        loaded = T.load_checkpoint(path)
        assert set(loaded) == set(params)
        for key in params:
            assert loaded[key].shape == params[key].shape
            np.testing.assert_array_equal(loaded[key], params[key])

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "bad.fmck"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("cut,where", [
        (6, "the header"), (9, "the name of entry 0"), (11, "the name of entry 0"),
        (14, "the dims of 'ab'"), (30, "the data of 'ab'"), (67, "the data of 'ab'")])
    def test_truncation_names_entry(self, tmp_path, cut, where):
        # layout: magic 0-4, count 4-8, name length 8-10, name 10-12,
        # ndim 12, dims 13-21, data 21-69
        path = tmp_path / "model.fmck"
        T.save_checkpoint(path, {"ab": np.ones((2, 3))})
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=f"truncated in {where}"):
            T.load_checkpoint(path)

    def test_byte_identical_rewrites(self, tmp_path):
        params = {"a": np.linspace(0, 1, 7), "b": np.ones((2, 2))}
        p1, p2 = tmp_path / "c1.fmck", tmp_path / "c2.fmck"
        T.save_checkpoint(p1, params)
        T.save_checkpoint(p2, params)
        assert p1.read_bytes() == p2.read_bytes()
