import dataclasses

import numpy as np
import pytest

from melcodec import coding, config, dsp, ocvq
from melcodec import tensor as T
from melcodec.dsp import MelConfig, MelSpectrogram
from melcodec.tensor import Tensor

from helpers import module_gradcheck


def tiny_cfg(**overrides):
    base = dict(hidden=8, n_blocks=1, downsample=4, code_dim=4,
                codebook_size=8, batch_size=1, steps=1)
    base.update(overrides)
    return coding.CodingConfig(**base)


def tiny_mel_cfg(n_mels=8):
    return MelConfig(n_mels=n_mels)


def untrained(cfg, seed=0):
    return coding.CodingModel(cfg.mel, cfg.coding, np.random.default_rng(seed))


class TestShapes:
    def test_encode_shape_chain(self, desk_cfg):
        model = untrained(desk_cfg)
        mel = MelSpectrogram(np.random.default_rng(0).normal(size=(100, 80)),
                             desk_cfg.mel)
        z = coding.encode(mel, model)
        assert z.shape == (25, 32)
        out = coding.decode(z, model)
        assert out.data.shape == (100, 80)

    def test_padding_when_not_divisible(self, desk_cfg):
        model = untrained(desk_cfg)
        mel = MelSpectrogram(np.random.default_rng(1).normal(size=(101, 80)),
                             desk_cfg.mel)
        z = coding.encode(mel, model)
        assert z.shape == (26, 32)  # ceil(101 / 4)
        pad = coding.frame_padding(101, 4)
        assert pad == 3
        out = coding.decode(z, model, pad_frames_count=pad)
        assert out.data.shape == (101, 80)

    def test_pad_edge_repeats_last_entry(self):
        a = np.arange(10.0).reshape(5, 2)
        np.testing.assert_array_equal(coding.pad_edge(a, 4),
                                      np.vstack([a] + [a[-1:]] * 3))
        np.testing.assert_array_equal(coding.pad_edge(a.T[None], 4, axis=-1)[0].T,
                                      coding.pad_edge(a, 4))
        assert coding.pad_edge(a, 5) is a

    def test_tokenize_detokenize_shapes(self, desk_cfg):
        model = untrained(desk_cfg)
        mel = MelSpectrogram(np.random.default_rng(12).normal(size=(101, 80)),
                             desk_cfg.mel)
        tokens, pad = coding.tokenize(mel, model)
        assert tokens.shape == (26,) and pad == 3
        assert coding.detokenize(tokens, pad, model).data.shape == (101, 80)

    def test_frame_padding_values(self):
        assert coding.frame_padding(100, 4) == 0
        assert coding.frame_padding(101, 4) == 3
        assert coding.frame_padding(103, 4) == 1

    def test_shape_chain_various_lengths(self, desk_cfg):
        model = untrained(desk_cfg)
        for n in (4, 17, 50, 99):
            mel = MelSpectrogram(np.random.default_rng(n).normal(size=(n, 80)),
                                 desk_cfg.mel)
            z = coding.encode(mel, model)
            assert z.shape[0] == int(np.ceil(n / 4))
            out = coding.decode(z, model, coding.frame_padding(n, 4))
            assert out.data.shape == (n, 80)

    def test_empty_input_rejected(self, desk_cfg):
        model = untrained(desk_cfg)
        with pytest.raises(ValueError):
            coding.encode(MelSpectrogram(np.zeros((0, 80)), desk_cfg.mel), model)

    def test_constant_input_finite(self, desk_cfg):
        model = untrained(desk_cfg)
        mel = MelSpectrogram(np.full((40, 80), -3.0), desk_cfg.mel)
        z = coding.encode(mel, model)
        assert np.all(np.isfinite(z))


class TestDeterminism:
    def test_encode_decode_eval_deterministic(self, desk_cfg):
        model = untrained(desk_cfg)
        mel = MelSpectrogram(np.random.default_rng(2).normal(size=(48, 80)),
                             desk_cfg.mel)
        z1, z2 = coding.encode(mel, model), coding.encode(mel, model)
        np.testing.assert_array_equal(z1, z2)
        d1, d2 = coding.decode(z1, model), coding.decode(z2, model)
        np.testing.assert_array_equal(d1.data, d2.data)

    def test_zeroed_output_conv_gives_bias_rows(self, desk_cfg):
        model = untrained(desk_cfg)
        model.decoder.conv_out.weight.data[:] = 0.0
        model.decoder.conv_out.bias.data[:] = np.arange(80) * 0.1
        out = coding.decode(np.zeros((10, 32)), model)
        np.testing.assert_allclose(out.data, np.tile(np.arange(80) * 0.1, (40, 1)))


class TestLosses:
    def test_mel_rec_zero(self):
        m = np.random.default_rng(3).normal(size=(5, 4))
        assert coding.mel_rec_loss(m, Tensor(m)).item() == 0.0

    def test_mel_rec_constant_residuals(self):
        m = np.zeros((3, 3))
        assert coding.mel_rec_loss(m, Tensor(np.ones((3, 3)))).item() == pytest.approx(2.0)
        assert coding.mel_rec_loss(m, Tensor(np.full((3, 3), 2.0))).item() == pytest.approx(6.0)

    @staticmethod
    def step_losses(cfg, seed):
        model = coding.CodingModel(tiny_mel_cfg(), cfg, np.random.default_rng(seed))
        opt = T.AdamW(model.named_parameters(), lr=1e-4)
        batch = np.random.default_rng(seed + 1).normal(size=(2, 8, 8))
        return coding.coding_step(model, batch, opt, np.random.default_rng(seed + 2))

    def test_total_loss_weighting(self):
        # the step's total is lambda_mel_rec * mel_rec + lambda_vq * vq
        out = self.step_losses(tiny_cfg(), seed=4)
        assert out["vq"] > 0 and out["mel_rec"] > 0
        assert out["total"] == pytest.approx(45.0 * out["mel_rec"] + 2.5 * out["vq"],
                                             rel=1e-12)

    def test_zero_vq_weight_reduces_to_reconstruction(self):
        out = self.step_losses(tiny_cfg(lambda_vq=0.0), seed=6)
        assert out["vq"] > 0
        assert out["total"] == pytest.approx(45.0 * out["mel_rec"], rel=1e-12)


def full_coding_gradcheck(model, batch, rtol=1e-3, atol=1e-6, max_coords=3,
                          step=1e-5, seed=0):
    """Check the full coding-objective gradient against central differences.

    The quantizer makes the raw objective non-differentiable, and the
    stop-gradient / straight-through semantics are deliberately not the true
    Jacobian. The finite-difference oracle therefore probes the function
    those semantics define at this point: token assignment, the sg[] operands,
    and the straight-through offset (z_hat - z) are all frozen at their
    current values, which makes the probed function smooth with exactly the
    gradient the estimator specifies. The analytic side runs the real
    production graph (quantize -> vq_loss -> straight_through -> decoder).
    """
    cfg = model.cfg
    x_arr = np.swapaxes(batch, 1, 2)  # [B, D, N]
    b = batch.shape[0]

    def encode_flat(x):
        z = model.encoder(x)
        n_lat = z.shape[2]
        return z.transpose(0, 2, 1).reshape(b * n_lat, cfg.code_dim), n_lat

    def real_loss():
        x = Tensor(x_arr)
        z_flat, n_lat = encode_flat(x)
        seq, _ = ocvq.quantize(z_flat.data, model.codebook_obj)
        z_q = T.index_rows(model.codebook, seq.tokens)
        l_vq = ocvq.vq_loss(z_flat, z_q, cfg.eta)
        z_dec = ocvq.straight_through(z_flat, z_q)
        z_dec = z_dec.reshape(b, n_lat, cfg.code_dim).transpose(0, 2, 1)
        m_tilde = model.decoder(z_dec)
        return cfg.lambda_mel_rec * coding.mel_rec_loss(x, m_tilde) \
            + cfg.lambda_vq * l_vq

    # freeze the point-dependent pieces for the finite-difference oracle
    with T.no_grad():
        z0_t, _ = encode_flat(Tensor(x_arr))
    z0 = z0_t.data
    tokens0 = ocvq.quantize(z0, model.codebook_obj)[0].tokens
    zq0 = model.codebook.data[tokens0].copy()
    offset0 = zq0 - z0

    def frozen_loss():
        with T.no_grad():
            x = Tensor(x_arr)
            z_flat, n_lat = encode_flat(x)
            z_q = T.index_rows(model.codebook, tokens0)
            term_cb = T.reduce_loss("mse", Tensor(z0), z_q)
            term_commit = T.reduce_loss("mse", z_flat, Tensor(zq0))
            z_dec = (z_flat + Tensor(offset0)).reshape(
                b, n_lat, cfg.code_dim).transpose(0, 2, 1)
            m_tilde = model.decoder(z_dec)
            total = cfg.lambda_mel_rec * coding.mel_rec_loss(x, m_tilde) \
                + cfg.lambda_vq * (term_cb + cfg.eta * term_commit)
        return total.item()

    params = model.named_parameters()
    for p in params.values():
        p.zero_grad()
    loss = real_loss()
    assert loss.item() == pytest.approx(frozen_loss(), rel=1e-12)
    T.backward(loss)
    rng = np.random.default_rng(seed)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        coords = rng.choice(flat.size, size=min(max_coords, flat.size),
                            replace=False)
        for c in coords:
            original = flat[c]
            flat[c] = original + step
            up = frozen_loss()
            flat[c] = original - step
            down = frozen_loss()
            flat[c] = original
            numeric = (up - down) / (2 * step)
            analytic = p.grad.reshape(-1)[c]
            np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol,
                                       err_msg=f"gradient mismatch for {name}[{c}]")


class TestWholeModelGradients:
    def test_full_loss_graph_matches_finite_differences(self):
        mel_cfg = tiny_mel_cfg(n_mels=8)
        cfg = tiny_cfg()
        rng = np.random.default_rng(7)
        model = coding.CodingModel(mel_cfg, cfg, rng)
        model.eval()  # no dropout anywhere in this stage; eval for determinism
        batch = rng.normal(size=(1, 8, 8))  # [B, N, D]
        full_coding_gradcheck(model, batch)


class TestTraining:
    def test_short_run_deterministic(self, toy_corpus, tmp_path):
        cfg = config.preset("desk")
        cfg.coding = dataclasses.replace(cfg.coding, steps=8)
        m1 = coding.train_coding(toy_corpus, cfg, tmp_path / "a.fmck")
        m2 = coding.train_coding(toy_corpus, cfg, tmp_path / "b.fmck")
        assert (tmp_path / "a.fmck").read_bytes() == (tmp_path / "b.fmck").read_bytes()
        assert (tmp_path / "a.fmck.loss.csv").read_text() == \
            (tmp_path / "b.fmck.loss.csv").read_text()
        for key in m1.state_dict():
            np.testing.assert_array_equal(m1.state_dict()[key], m2.state_dict()[key])

    def test_loss_decreases_over_training(self, trained_coding_oc):
        # directional check on the session model's per-step loss log
        model, ckpt = trained_coding_oc
        rows = np.genfromtxt(str(ckpt) + ".loss.csv", delimiter=",", names=True)
        total = 45.0 * rows["mel_rec"] + 2.5 * rows["vq"]
        assert np.mean(total[-50:]) < np.mean(total[:50])

    def test_nonfinite_loss_aborts(self, desk_cfg):
        model = untrained(desk_cfg)
        model.train()
        model.encoder.conv_in.weight.data[:] = 1e200  # force overflow
        opt = T.AdamW(model.named_parameters(), lr=1e-4)
        batch = np.random.default_rng(8).normal(size=(1, 20, 80))
        with np.errstate(all="ignore"), \
                pytest.raises((RuntimeError, FloatingPointError)):
            coding.coding_step(model, batch, opt, np.random.default_rng(9))

    def test_unreadable_corpus_rejected(self, tmp_path, desk_cfg):
        bad = tmp_path / "missing.wav"
        with pytest.raises((FileNotFoundError, ValueError)):
            coding.train_coding([str(bad)], desk_cfg, tmp_path / "x.fmck")

    def test_autoencoder_overfit_sanity(self, toy_corpus):
        # lambda_vq = 0 and quantizer bypassed: plain autoencoder must drive
        # the reconstruction loss under 0.05 on a one-sample corpus
        mel_cfg = MelConfig()
        cfg = coding.CodingConfig(hidden=16, n_blocks=1, code_dim=8,
                                  codebook_size=8, lambda_vq=0.0,
                                  bypass_quantizer=True, batch_size=1,
                                  segment_seconds=0.5, lr=1e-3)
        rng = np.random.default_rng(10)
        model = coding.CodingModel(mel_cfg, cfg, rng)
        model.train()
        opt = T.AdamW(model.named_parameters(), lr=cfg.lr,
                      betas=(cfg.beta1, cfg.beta2), weight_decay=0.0)
        clip, _ = dsp.load_wav(toy_corpus[0])
        mel = dsp.mel_spectrogram(clip[:8000], mel_cfg).data  # one fixed sample
        batch = coding.pad_edge(mel[None], cfg.downsample, axis=1)
        final = np.inf
        for step in range(2000):
            out = coding.coding_step(model, batch, opt, rng)
            final = out["mel_rec"]
            if final < 0.05:
                break
        assert final < 0.05, f"autoencoder failed to overfit: mel_rec={final}"


class TestCheckpointRoundTrip:
    def test_save_load_model(self, tmp_path, desk_cfg):
        model = untrained(desk_cfg, seed=3)
        path = tmp_path / "model.fmck"
        T.save_checkpoint(path, model.state_dict(prefix="coding/"))
        loaded = coding.load_coding_model(path, desk_cfg.mel, desk_cfg.coding)
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(loaded.state_dict()[key], value)
        mel = MelSpectrogram(np.random.default_rng(11).normal(size=(20, 80)),
                             desk_cfg.mel)
        np.testing.assert_array_equal(coding.encode(mel, model),
                                      coding.encode(mel, loaded))
