import numpy as np
import pytest

from melcodec import nn
from melcodec import tensor as T
from melcodec.tensor import Tensor

from helpers import module_gradcheck


RNG = np.random.default_rng(42)


def rand_input(b=1, c=8, l=10, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(b, c, l)) * 0.5)


class TestConvNeXtBlock:
    def test_zero_pw2_gives_identity(self):
        block = nn.ConvNeXtBlock(8, np.random.default_rng(0))
        block.pw2.weight.data[:] = 0.0
        block.pw2.bias.data[:] = 0.0
        x = rand_input(2, 8, 12, seed=1)
        np.testing.assert_array_equal(block(x).data, x.data)

    def test_shape_preserved(self):
        block = nn.ConvNeXtBlock(8, np.random.default_rng(2))
        for l in (3, 7, 25, 64):
            x = rand_input(2, 8, l, seed=l)
            assert block(x).shape == x.shape

    def test_gradients(self):
        block = nn.ConvNeXtBlock(4, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(1, 4, 6))
        module_gradcheck(block, lambda: (block(Tensor(x)) ** 2).sum())


class TestGrn:
    def test_zero_gain_bias_identity(self):
        x = rand_input(2, 5, 7, seed=5)
        out = nn.grn(x, Tensor(np.zeros(5)), Tensor(np.zeros(5)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_identical_channels(self):
        row = np.random.default_rng(6).normal(size=(1, 1, 9))
        x = Tensor(np.repeat(row, 4, axis=1))
        gain = Tensor(np.full(4, 0.3))
        bias = Tensor(np.full(4, -0.1))
        out = nn.grn(x, gain, bias)
        # all channel norms equal, so the relative norm is norm/(norm + eps)
        norm = float(np.linalg.norm(row))
        rel = norm / (norm + 1e-6)
        np.testing.assert_allclose(out.data, 0.3 * x.data * rel - 0.1 + x.data,
                                   atol=1e-12)

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 6, 11))
        gain, bias = rng.normal(size=6), rng.normal(size=6)
        out = nn.grn(Tensor(x), Tensor(gain), Tensor(bias)).data
        # independent transcription
        expected = np.empty_like(x)
        for b in range(2):
            norms = np.sqrt((x[b] ** 2).sum(axis=1))
            rel = norms / (norms.mean() + 1e-6)
            expected[b] = (gain[:, None] * (x[b] * rel[:, None])
                           + bias[:, None] + x[b])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 3, 5))
        g = rng.normal(size=3)
        b = rng.normal(size=3)
        from helpers import gradcheck
        gradcheck(lambda a, gg, bb: (nn.grn(a, gg, bb) ** 2).sum(), [x, g, b])


class TestSnakeBeta:
    def test_zero_maps_to_zero(self):
        x = Tensor(np.zeros((1, 3, 4)))
        out = nn.snakebeta(x, Tensor(np.ones(3)), Tensor(np.full(3, -2.0)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_half_pi_value(self):
        x = Tensor(np.full((1, 1, 1), np.pi / 2))
        out = nn.snakebeta(x, Tensor(np.zeros(1)), Tensor(np.zeros(1)))
        assert out.item() == pytest.approx(np.pi / 2 + 1.0, abs=1e-8)

    def test_offset_bounded_by_inverse_beta(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 4, 16)) * 3.0)
        log_beta = Tensor(rng.normal(size=4))
        out = nn.snakebeta(x, Tensor(rng.normal(size=4)), log_beta)
        offset = out.data - x.data
        cap = 1.0 / (np.exp(log_beta.data) + 1e-9)
        assert np.all(offset >= 0)
        assert np.all(offset <= cap[None, :, None] + 1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(10)
        from helpers import gradcheck
        gradcheck(lambda x, a, b: (nn.snakebeta(x, a, b) ** 2).sum(),
                  [rng.normal(size=(1, 2, 5)), rng.normal(size=2), rng.normal(size=2)])


class TestResNetBlock:
    def make(self, cin=8, cout=8, t_dim=6, seed=11):
        return nn.ResNetBlock(cin, cout, t_dim, np.random.default_rng(seed))

    def test_zeroed_main_branch_gives_projection(self):
        block = self.make()
        block.conv2.weight.data[:] = 0.0
        block.conv2.bias.data[:] = 0.0
        x = rand_input(2, 8, 10, seed=12)
        t = Tensor(np.random.default_rng(13).normal(size=(2, 6)))
        out = block(x, t)
        expected = block.res(x)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_time_sensitivity(self):
        block = self.make()
        x = rand_input(1, 8, 10, seed=14)
        t1 = Tensor(np.zeros((1, 6)))
        t2 = Tensor(np.ones((1, 6)))
        assert not np.allclose(block(x, t1).data, block(x, t2).data)

    def test_channel_change(self):
        block = self.make(cin=8, cout=16)
        out = block(rand_input(1, 8, 10, seed=15),
                    Tensor(np.zeros((1, 6))))
        assert out.shape == (1, 16, 10)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError):
            self.make(cout=10)

    def test_gradients(self):
        block = self.make(cin=8, cout=8, t_dim=4, seed=16)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(1, 8, 6))
        t = rng.normal(size=(1, 4))
        module_gradcheck(block, lambda: (block(Tensor(x), Tensor(t)) ** 2).sum(),
                         max_coords=4)


class TestAttentionBlock:
    def make(self, channels=8, t_dim=6, seed=18, heads=2, head_dim=4):
        return nn.AttentionBlock(channels, t_dim, np.random.default_rng(seed),
                                 heads=heads, head_dim=head_dim)

    def test_zeroed_projections_identity(self):
        block = self.make()
        block.out_proj.weight.data[:] = 0.0
        block.out_proj.bias.data[:] = 0.0
        block.ff.outer.weight.data[:] = 0.0
        block.ff.outer.bias.data[:] = 0.0
        x = rand_input(2, 8, 9, seed=19)
        t = Tensor(np.random.default_rng(20).normal(size=(2, 6)))
        np.testing.assert_array_equal(block(x, t).data, x.data)

    def test_permutation_equivariance_without_time(self):
        block = self.make().eval()
        block.t_proj.weight.data[:] = 0.0
        block.t_proj.bias.data[:] = 0.0
        x = np.random.default_rng(21).normal(size=(1, 8, 7))
        t = Tensor(np.zeros((1, 6)))
        perm = np.random.default_rng(22).permutation(7)
        out = block(Tensor(x), t).data
        out_perm = block(Tensor(x[:, :, perm]), t).data
        np.testing.assert_allclose(out_perm, out[:, :, perm], atol=1e-12)

    def test_gradients(self):
        block = self.make(seed=23).eval()
        rng = np.random.default_rng(24)
        x = rng.normal(size=(1, 8, 5))
        t = rng.normal(size=(1, 6))
        module_gradcheck(block, lambda: (block(Tensor(x), Tensor(t)) ** 2).sum(),
                         max_coords=4)

    def test_dropout_only_in_training(self):
        block = self.make(seed=25)
        block.ff.dropout = 0.5
        x = rand_input(1, 8, 6, seed=26)
        t = Tensor(np.zeros((1, 6)))
        block.eval()
        a = block(x, t).data
        b = block(x, t).data
        np.testing.assert_array_equal(a, b)
        block.train()
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(2)
        c = block(x, t, rng=rng1).data
        d = block(x, t, rng=rng2).data
        assert not np.array_equal(c, d)


class TestTimeEmbedding:
    def test_deterministic(self):
        emb = nn.TimeEmbedding(16, np.random.default_rng(27))
        np.testing.assert_array_equal(emb(0.37).data, emb(0.37).data)

    def test_raw_features_at_zero(self):
        feats = nn.sinusoidal_features(np.array([0.0]), 16)[0]
        np.testing.assert_array_equal(feats[:8], np.zeros(8))
        np.testing.assert_array_equal(feats[8:], np.ones(8))

    def test_distinct_times_distinct_embeddings(self):
        emb = nn.TimeEmbedding(16, np.random.default_rng(28))
        d = np.linalg.norm(emb(0.3).data - emb(0.7).data)
        assert d > 0

    def test_out_of_range_rejected(self):
        emb = nn.TimeEmbedding(16, np.random.default_rng(29))
        with pytest.raises(ValueError):
            emb(1.5)
        with pytest.raises(ValueError):
            emb(-0.1)

    def test_batched(self):
        emb = nn.TimeEmbedding(16, np.random.default_rng(30))
        out = emb(np.array([0.1, 0.9]))
        assert out.shape == (2, 16)


class TestModuleContainer:
    def test_named_parameters_nested(self):
        block = nn.ConvNeXtBlock(4, np.random.default_rng(31))
        names = set(block.named_parameters())
        assert "dw.weight" in names
        assert "pw1.bias" in names
        assert "grn_gain" in names

    def test_state_round_trip(self):
        block = nn.ConvNeXtBlock(4, np.random.default_rng(32))
        state = {k: v.copy() for k, v in block.state_dict().items()}
        for p in block.parameters():
            p.data += 1.0
        block.load_state(state)
        for k, v in block.state_dict().items():
            np.testing.assert_array_equal(v, state[k])

    def test_missing_key_rejected(self):
        block = nn.ConvNeXtBlock(4, np.random.default_rng(33))
        with pytest.raises(KeyError):
            block.load_state({})

    def test_unexpected_key_rejected(self):
        block = nn.ConvNeXtBlock(4, np.random.default_rng(34))
        state = block.state_dict(prefix="enc/")
        state["other/w"] = np.zeros(3)  # outside the prefix: not this module's
        block.load_state(state, prefix="enc/")
        state["enc/pw3.weight"] = np.zeros(3)
        with pytest.raises(ValueError, match="unexpected parameter 'enc/pw3.weight'"):
            block.load_state(state, prefix="enc/")
