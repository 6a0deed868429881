import dataclasses
import json

import numpy as np
import pytest

from melcodec import bitstream as bs
from melcodec import cli, coding, config, dsp, refine
from melcodec import tensor as T
from melcodec.dsp import MelConfig, MelSpectrogram

from conftest import synth_clip


def hand_dct_ortho(x):
    """Loop transcription of the orthonormal DCT-II."""
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += x[i] * np.cos(np.pi * (2 * i + 1) * k / (2 * n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


class TestMcd:
    def test_identical_zero(self):
        mel = MelSpectrogram(np.random.default_rng(0).normal(size=(10, 80)),
                             MelConfig())
        assert cli.mcd(mel, mel) == 0.0

    def test_constant_offset_free(self):
        rng = np.random.default_rng(1)
        ref = rng.normal(size=(6, 80))
        offsets = rng.normal(size=(6, 1)) * 3.0
        cfg = MelConfig()
        value = cli.mcd(MelSpectrogram(ref, cfg),
                        MelSpectrogram(ref + offsets, cfg))
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_single_frame_against_dct_oracle(self):
        cfg = MelConfig()
        row = np.zeros(80)
        row[0] = 1.0
        coeffs = hand_dct_ortho(row)[1:14]
        expected = (10.0 / np.log(10.0)) * np.sqrt(2.0 * (coeffs ** 2).sum())
        value = cli.mcd(MelSpectrogram(row[None], cfg),
                        MelSpectrogram(np.zeros((1, 80)), cfg))
        assert value == pytest.approx(expected, rel=1e-10)

    def test_frame_count_trimming(self):
        rng = np.random.default_rng(2)
        cfg = MelConfig()
        a = MelSpectrogram(rng.normal(size=(8, 80)), cfg)
        b = MelSpectrogram(np.vstack([a.data, rng.normal(size=(3, 80))]), cfg)
        assert cli.mcd(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        cfg = MelConfig()
        with pytest.raises(ValueError):
            cli.mcd(MelSpectrogram(np.zeros((0, 80)), cfg),
                    MelSpectrogram(np.zeros((0, 80)), cfg))


@pytest.fixture(scope="module")
def desk_ckpt(tmp_path_factory):
    """Untrained desk-size two-stage checkpoint plus config sidecar."""
    cfg = config.preset("desk")
    outdir = tmp_path_factory.mktemp("cli_models")
    model = coding.CodingModel(cfg.mel, cfg.coding, np.random.default_rng(1))
    net = refine.VelocityNet(cfg.mel.n_mels, cfg.refine, np.random.default_rng(2))
    state = model.state_dict(prefix="coding/")
    state.update(net.state_dict(prefix="refine/"))
    path = outdir / "model.fmck"
    T.save_checkpoint(path, state)
    config.to_json(cfg, str(path) + ".json")
    coding_only = outdir / "coding_only.fmck"
    T.save_checkpoint(coding_only, model.state_dict(prefix="coding/"))
    config.to_json(cfg, str(coding_only) + ".json")
    return path, coding_only


@pytest.fixture(scope="module")
def sample_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_wavs") / "sample.wav"
    dsp.save_wav(path, synth_clip(np.random.default_rng(3), 2.0), 16000)
    return path


class TestEncodeDecode:
    def test_encode_prints_bps(self, desk_ckpt, sample_wav, tmp_path, capsys):
        model_path, _ = desk_ckpt
        out = tmp_path / "clip.fmb"
        rc = cli.main(["encode", "--in", str(sample_wav), "--model",
                       str(model_path), "--out", str(out)])
        assert rc == 0
        assert out.exists()
        # desk: 25 tokens/s * log2(64) = 150 bps
        assert "150.0 bps" in capsys.readouterr().out

    def test_round_trip_duration(self, desk_ckpt, sample_wav, tmp_path):
        model_path, _ = desk_ckpt
        fmb = tmp_path / "clip.fmb"
        wav_out = tmp_path / "decoded.wav"
        assert cli.main(["encode", "--in", str(sample_wav), "--model",
                         str(model_path), "--out", str(fmb)]) == 0
        assert cli.main(["decode", "--in", str(fmb), "--model", str(model_path),
                         "--out", str(wav_out), "--iters", "1"]) == 0
        original, rate = dsp.load_wav(sample_wav)
        decoded, _ = dsp.load_wav(wav_out)
        assert abs(len(decoded) - len(original)) < 160  # one hop

    def test_decode_no_refine_with_coding_only(self, desk_ckpt, sample_wav, tmp_path):
        _, coding_only = desk_ckpt
        fmb = tmp_path / "clip.fmb"
        wav_out = tmp_path / "noref.wav"
        assert cli.main(["encode", "--in", str(sample_wav), "--model",
                         str(coding_only), "--out", str(fmb)]) == 0
        assert cli.main(["decode", "--in", str(fmb), "--model", str(coding_only),
                         "--out", str(wav_out), "--no-refine"]) == 0
        assert wav_out.exists()

    def test_decode_refine_requires_stage(self, desk_ckpt, sample_wav, tmp_path, capsys):
        _, coding_only = desk_ckpt
        fmb = tmp_path / "clip.fmb"
        assert cli.main(["encode", "--in", str(sample_wav), "--model",
                         str(coding_only), "--out", str(fmb)]) == 0
        rc = cli.main(["decode", "--in", str(fmb), "--model", str(coding_only),
                       "--out", str(tmp_path / "x.wav")])
        assert rc != 0
        assert not (tmp_path / "x.wav").exists()

    def test_iteration_count_scales_net_evaluations(self, desk_ckpt, sample_wav,
                                                    tmp_path, monkeypatch):
        model_path, _ = desk_ckpt
        fmb = tmp_path / "clip.fmb"
        assert cli.main(["encode", "--in", str(sample_wav), "--model",
                         str(model_path), "--out", str(fmb)]) == 0
        counts = []
        original = refine.VelocityNet.__call__

        def counted(self, *args, **kwargs):
            counts.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(refine.VelocityNet, "__call__", counted)
        assert cli.main(["decode", "--in", str(fmb), "--model", str(model_path),
                         "--out", str(tmp_path / "i1.wav"), "--iters", "1"]) == 0
        one_step = len(counts)
        counts.clear()
        assert cli.main(["decode", "--in", str(fmb), "--model", str(model_path),
                         "--out", str(tmp_path / "i4.wav"), "--iters", "4"]) == 0
        assert len(counts) == 4 * one_step

    def test_odd_inputs_never_crash(self, desk_ckpt, tmp_path):
        # spec'd robustness: any 16-bit PCM mono input of 0.5-60 s must
        # encode and decode without NaN or crash
        model_path, _ = desk_ckpt
        rng = np.random.default_rng(30)
        cases = {
            "short_noise": rng.uniform(-0.5, 0.5, 8000),        # 0.5 s
            "dc": np.full(20800, 0.9),                          # 1.3 s constant
            "silence": np.zeros(32000),                         # 2 s
            "loud": np.sign(rng.normal(size=16000)),            # clipping square
        }
        for name, samples in cases.items():
            wav = tmp_path / f"{name}.wav"
            fmb = tmp_path / f"{name}.fmb"
            out = tmp_path / f"{name}_out.wav"
            dsp.save_wav(wav, samples, 16000)
            assert cli.main(["encode", "--in", str(wav), "--model",
                             str(model_path), "--out", str(fmb)]) == 0
            assert cli.main(["decode", "--in", str(fmb), "--model",
                             str(model_path), "--out", str(out),
                             "--iters", "1"]) == 0
            decoded, _ = dsp.load_wav(out)
            assert np.all(np.isfinite(decoded))

    def test_missing_model_fails_cleanly(self, sample_wav, tmp_path, capsys):
        out = tmp_path / "x.fmb"
        rc = cli.main(["encode", "--in", str(sample_wav), "--model",
                       str(tmp_path / "nope.fmck"), "--out", str(out)])
        assert rc != 0
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_header_model_mismatch(self, desk_ckpt, sample_wav, tmp_path):
        model_path, _ = desk_ckpt
        fmb = tmp_path / "clip.fmb"
        assert cli.main(["encode", "--in", str(sample_wav), "--model",
                         str(model_path), "--out", str(fmb)]) == 0
        # a paper-scale config disagrees with the desk stream's K
        paper_cfg = tmp_path / "paper.json"
        paper_cfg.write_text(json.dumps({"preset": "paper-16k"}))
        rc = cli.main(["decode", "--in", str(fmb), "--model", str(model_path),
                       "--out", str(tmp_path / "y.wav"), "--config", str(paper_cfg)])
        assert rc != 0

    def test_header_rate_mismatch(self, desk_ckpt, sample_wav, tmp_path, capsys):
        model_path, _ = desk_ckpt
        fmb = tmp_path / "clip.fmb"
        assert cli.main(["encode", "--in", str(sample_wav), "--model",
                         str(model_path), "--out", str(fmb)]) == 0
        header, seq = bs.read_stream(fmb)
        bs.write_stream(fmb, dataclasses.replace(header, sample_rate=8000),
                        seq.tokens)
        capsys.readouterr()
        out = tmp_path / "z.wav"
        rc = cli.main(["decode", "--in", str(fmb), "--model", str(model_path),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "8000" in err
        assert not out.exists()


class TestStrictCheckpoint:
    def encode_fails(self, state, sample_wav, tmp_path, capsys):
        cfg = config.preset("desk")  # 2 ConvNeXt blocks per side
        path = tmp_path / "model.fmck"
        T.save_checkpoint(path, state)
        config.to_json(cfg, str(path) + ".json")
        out = tmp_path / "x.fmb"
        capsys.readouterr()
        rc = cli.main(["encode", "--in", str(sample_wav), "--model", str(path),
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()
        return err

    def test_more_blocks_than_the_sidecar_rejected(self, sample_wav, tmp_path,
                                                   capsys):
        cfg = config.preset("desk")
        cfg.coding = dataclasses.replace(cfg.coding, n_blocks=4)
        model = coding.CodingModel(cfg.mel, cfg.coding, np.random.default_rng(1))
        err = self.encode_fails(model.state_dict(prefix="coding/"), sample_wav,
                                tmp_path, capsys)
        assert "coding/encoder.blocks.2." in err

    def test_entry_outside_both_stages_rejected(self, sample_wav, tmp_path,
                                                capsys):
        cfg = config.preset("desk")
        model = coding.CodingModel(cfg.mel, cfg.coding, np.random.default_rng(1))
        state = model.state_dict(prefix="coding/")
        state["vocoder/w"] = np.zeros(2)
        err = self.encode_fails(state, sample_wav, tmp_path, capsys)
        assert "vocoder/w" in err


class TestStreamGeometry:
    @pytest.mark.parametrize("count,pad", [(None, 4), (None, 200), (0, 0)])
    def test_impossible_padding_or_empty_stream_rejected(self, desk_ckpt,
                                                         sample_wav, tmp_path,
                                                         capsys, count, pad):
        # desk r = 4: an encoder pads 0-3 frames and writes at least one token
        model_path, _ = desk_ckpt
        fmb = tmp_path / "clip.fmb"
        assert cli.main(["encode", "--in", str(sample_wav), "--model",
                         str(model_path), "--out", str(fmb)]) == 0
        header, seq = bs.read_stream(fmb)
        tokens = seq.tokens if count is None else seq.tokens[:count]
        bs.write_stream(fmb, dataclasses.replace(
            header, token_count=len(tokens), pad_frames=pad), tokens)
        capsys.readouterr()
        out = tmp_path / "y.wav"
        rc = cli.main(["decode", "--in", str(fmb), "--model", str(model_path),
                       "--out", str(out), "--iters", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{pad} pad frames" in err
        assert not out.exists()


class TestDebugMode:
    def test_errors_print_by_default_and_raise_under_debug(self, sample_wav,
                                                           tmp_path, capsys,
                                                           monkeypatch):
        argv = ["encode", "--in", str(sample_wav), "--model",
                str(tmp_path / "nope.fmck"), "--out", str(tmp_path / "x.fmb")]
        monkeypatch.delenv("MELCODEC_DEBUG", raising=False)
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
        monkeypatch.setenv("MELCODEC_DEBUG", "1")
        with pytest.raises(OSError):
            cli.main(argv)
        assert capsys.readouterr().err == ""


class TestTrainCommand:
    def test_train_coding_then_refine(self, toy_corpus, tmp_path):
        cfg = config.preset("desk")
        cfg.coding = dataclasses.replace(cfg.coding, steps=4)
        cfg.refine = dataclasses.replace(cfg.refine, phase1_steps=2,
                                         phase2_steps=1, batch_size=2)
        cfg_path = tmp_path / "cfg.json"
        config.to_json(cfg, cfg_path)
        cod = tmp_path / "cod.fmck"
        rc = cli.main(["train", "--stage", "coding", "--config", str(cfg_path),
                       "--corpus", *toy_corpus[:3], "--out", str(cod)])
        assert rc == 0
        assert cod.exists() and (tmp_path / "cod.fmck.json").exists()
        full = tmp_path / "full.fmck"
        rc = cli.main(["train", "--stage", "refine", "--config", str(cfg_path),
                       "--corpus", *toy_corpus[:3], "--out", str(full),
                       "--coding-ckpt", str(cod)])
        assert rc == 0
        state = T.load_checkpoint(full)
        assert any(k.startswith("refine/") for k in state)

    def test_refine_without_coding_ckpt_fails(self, toy_corpus, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        config.to_json(config.preset("desk"), cfg_path)
        rc = cli.main(["train", "--stage", "refine", "--config", str(cfg_path),
                       "--corpus", *toy_corpus[:2], "--out", str(tmp_path / "r.fmck")])
        assert rc != 0

    def test_corpus_directory_expansion(self, toy_corpus, tmp_path):
        corpus_dir = toy_corpus[0].rsplit("/", 1)[0]
        cfg = config.preset("desk")
        cfg.coding = dataclasses.replace(cfg.coding, steps=2)
        cfg_path = tmp_path / "cfg.json"
        config.to_json(cfg, cfg_path)
        rc = cli.main(["train", "--stage", "coding", "--config", str(cfg_path),
                       "--corpus", corpus_dir, "--out", str(tmp_path / "c.fmck")])
        assert rc == 0

    def test_seed_determinism_and_env_override(self, toy_corpus, tmp_path,
                                               monkeypatch):
        cfg = config.preset("desk")
        cfg.coding = dataclasses.replace(cfg.coding, steps=3)
        cfg.seed = 7
        cfg_seed7 = tmp_path / "seed7.json"
        config.to_json(cfg, cfg_seed7)
        cfg.seed = 0
        cfg_seed0 = tmp_path / "seed0.json"
        config.to_json(cfg, cfg_seed0)

        a = tmp_path / "a.fmck"
        b = tmp_path / "b.fmck"
        c = tmp_path / "c.fmck"
        assert cli.main(["train", "--stage", "coding", "--config", str(cfg_seed7),
                         "--corpus", *toy_corpus[:3], "--out", str(a)]) == 0
        assert cli.main(["train", "--stage", "coding", "--config", str(cfg_seed7),
                         "--corpus", *toy_corpus[:3], "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        monkeypatch.setenv("FMC_SEED", "7")
        assert cli.main(["train", "--stage", "coding", "--config", str(cfg_seed0),
                         "--corpus", *toy_corpus[:3], "--out", str(c)]) == 0
        assert c.read_bytes() == a.read_bytes()


class TestEvalCommand:
    def test_self_comparison_zero(self, sample_wav, capsys, tmp_path):
        rc = cli.main(["eval", "--ref", str(sample_wav), "--deg", str(sample_wav)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mcd: 0.0000 dB" in out
        assert "mel_l1: 0.000000" in out

    def test_against_silence_positive(self, sample_wav, tmp_path, capsys):
        silence = tmp_path / "silence.wav"
        dsp.save_wav(silence, np.zeros(32000), 16000)
        rc = cli.main(["eval", "--ref", str(sample_wav), "--deg", str(silence)])
        assert rc == 0
        out = capsys.readouterr().out
        mcd_val = float(out.split("mcd: ")[1].split(" dB")[0])
        l1_val = float(out.split("mel_l1: ")[1].split("\n")[0])
        assert mcd_val > 0 and l1_val > 0

    def test_deterministic_output(self, sample_wav, tmp_path, capsys):
        silence = tmp_path / "s.wav"
        dsp.save_wav(silence, np.zeros(16000), 16000)
        cli.main(["eval", "--ref", str(sample_wav), "--deg", str(silence)])
        first = capsys.readouterr().out
        cli.main(["eval", "--ref", str(sample_wav), "--deg", str(silence)])
        assert capsys.readouterr().out == first

    def test_csv_emission(self, sample_wav, tmp_path):
        csv_path = tmp_path / "metrics.csv"
        assert cli.main(["eval", "--ref", str(sample_wav), "--deg",
                         str(sample_wav), "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "file,mcd_db,mel_l1,mel_l2,bps"
        assert len(lines) == 2

    def test_rate_mismatch_rejected(self, sample_wav, tmp_path):
        other = tmp_path / "other_rate.wav"
        dsp.save_wav(other, np.zeros(8000), 8000)
        rc = cli.main(["eval", "--ref", str(sample_wav), "--deg", str(other)])
        assert rc != 0
