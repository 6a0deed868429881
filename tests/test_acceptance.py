"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-dependent
criteria (3, 7, 8) share the session-scoped desk models from conftest.
"""

import dataclasses

import numpy as np
import pytest

from melcodec import bitstream as bs
from melcodec import cli, coding, config, dsp, ocvq, refine
from melcodec import tensor as T
from melcodec import nn as mnn
from melcodec.dsp import MelConfig, MelSpectrogram
from melcodec.tensor import Tensor

from conftest import synth_clip, write_corpus
from helpers import module_gradcheck
from test_coding import full_coding_gradcheck
from test_dsp import naive_stft, reference_filterbank
from test_refine import full_refine_gradcheck, tiny_refine_cfg


def check(criterion: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status} - {description}{suffix}",
          flush=True)
    assert passed, f"criterion {criterion} failed: {description}{suffix}"


def coarse_mel(mel: MelSpectrogram, model) -> np.ndarray:
    tokens, pad = coding.tokenize(mel, model)
    return coding.detokenize(tokens, pad, model).data


class TestCriterion1Bitrate:
    @pytest.mark.parametrize("preset_name,expected_bps,expected_tokens", [
        ("paper-16k", 250.0, 250), ("paper-48k", 750.0, 750)])
    def test_bitrate_exactness(self, preset_name, expected_bps, expected_tokens,
                               tmp_path, capsys):
        cfg = config.preset(preset_name)
        sr = cfg.mel.sample_rate
        wav_path = tmp_path / "ten_seconds.wav"
        dsp.save_wav(wav_path, synth_clip(np.random.default_rng(0), 10.0, sr), sr)
        model = coding.CodingModel(cfg.mel, cfg.coding, np.random.default_rng(0))
        ckpt = tmp_path / "model.fmck"
        T.save_checkpoint(ckpt, model.state_dict(prefix="coding/"))
        config.to_json(cfg, str(ckpt) + ".json")
        fmb = tmp_path / "ten.fmb"
        rc = cli.main(["encode", "--in", str(wav_path), "--model", str(ckpt),
                       "--out", str(fmb)])
        printed = capsys.readouterr().out
        header, seq = bs.read_stream(fmb)
        bits = bs.payload_bits(header.token_count, header.codebook_size)
        ok = (rc == 0
              and header.token_count == expected_tokens
              and bs.bits_per_token(header.codebook_size) == 10
              and bits == expected_tokens * 10
              and bits / 10.0 == expected_bps
              and f"{expected_bps:.1f} bps" in printed)
        check(1, f"{preset_name} payload is exactly {expected_bps} bps", ok,
              f"{header.token_count} tokens, {bits} bits over 10 s")


class TestCriterion2QuantizerOracle:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(1)
        mismatches = 0
        for _ in range(1000):
            k = int(rng.integers(2, 33))
            c = int(rng.integers(1, 9))
            n = int(rng.integers(1, 33))
            z = rng.normal(size=(n, c)) * rng.uniform(0.1, 3.0)
            w = rng.normal(size=(k, c))
            if rng.random() < 0.1 and k >= 2:
                w[1] = w[0]  # force exact ties to exercise the tie-break
            cb = ocvq.Codebook(Tensor(w, requires_grad=True))
            seq, z_hat = ocvq.quantize(z, cb)
            # exhaustive scan, one codeword at a time
            best = np.full(n, np.inf)
            expected = np.zeros(n, dtype=np.int64)
            for kk in range(k):
                d = np.sqrt(((z - w[kk]) ** 2).sum(axis=1))
                better = d < best
                expected[better] = kk
                best[better] = d[better]
            if not (np.array_equal(seq.tokens, expected)
                    and np.array_equal(z_hat, w[expected])):
                mismatches += 1
        check(2, "quantize matches exhaustive nearest-neighbor on 1000 instances",
              mismatches == 0, f"{mismatches} mismatching instances")


class TestCriterion3OnlineClusteringAblation:
    def test_utilization_ablation(self, trained_coding_oc, trained_coding_nooc):
        model_oc, _ = trained_coding_oc
        model_nooc, _ = trained_coding_nooc
        u_oc = model_oc.final_epoch_utilization
        u_nooc = model_nooc.final_epoch_utilization
        check(3, "online clustering keeps codebook utilization >= 90% and "
                 "disabling it is strictly worse",
              u_oc >= 0.90 and u_nooc < u_oc,
              f"OC {u_oc:.3f} vs plain {u_nooc:.3f}")


class TestCriterion4GradientSuite:
    def test_layer_and_full_graph_gradients(self):
        failures = []

        def try_check(name, fn):
            try:
                fn()
            except AssertionError as exc:
                failures.append(f"{name}: {exc}")

        rng = np.random.default_rng(2)
        block = mnn.ConvNeXtBlock(4, np.random.default_rng(3))
        x_cn = rng.normal(size=(1, 4, 6))
        try_check("convnext", lambda: module_gradcheck(
            block, lambda: (block(Tensor(x_cn)) ** 2).sum(),
            rtol=1e-4, atol=1e-7, max_coords=4))

        res = mnn.ResNetBlock(8, 8, 4, np.random.default_rng(4))
        x_res = rng.normal(size=(1, 8, 6))
        t_res = rng.normal(size=(1, 4))
        try_check("resnet", lambda: module_gradcheck(
            res, lambda: (res(Tensor(x_res), Tensor(t_res)) ** 2).sum(),
            rtol=1e-4, atol=1e-7, max_coords=4))

        attn = mnn.AttentionBlock(8, 4, np.random.default_rng(5),
                                  heads=2, head_dim=4).eval()
        x_at = rng.normal(size=(1, 8, 5))
        try_check("attention", lambda: module_gradcheck(
            attn, lambda: (attn(Tensor(x_at), Tensor(t_res)) ** 2).sum(),
            rtol=1e-4, atol=1e-7, max_coords=4))

        emb = mnn.TimeEmbedding(8, np.random.default_rng(6))
        try_check("time_embed", lambda: module_gradcheck(
            emb, lambda: (emb(np.array([0.37])) ** 2).sum(),
            rtol=1e-4, atol=1e-7, max_coords=4))

        # full coding objective at tiny widths
        mel_cfg = MelConfig(n_mels=8)
        ccfg = coding.CodingConfig(hidden=8, n_blocks=1, code_dim=4,
                                   codebook_size=8)
        cmodel = coding.CodingModel(mel_cfg, ccfg, np.random.default_rng(7))
        cmodel.eval()
        try_check("coding objective", lambda: full_coding_gradcheck(
            cmodel, rng.normal(size=(1, 8, 8)), rtol=1e-3, atol=1e-6,
            max_coords=2))

        # full refinement objective at tiny widths
        rcfg = tiny_refine_cfg()
        net = refine.VelocityNet(4, rcfg, np.random.default_rng(8)).eval()
        try_check("refine objective", lambda: full_refine_gradcheck(
            net, rcfg, rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4)),
            rng.normal(size=(2, 4, 4)), rtol=1e-3, atol=1e-6, max_coords=2))

        check(4, "every layer and both full objectives pass finite-difference "
                 "gradient checks", not failures, "; ".join(failures)[:200])


class TestCriterion5OdeAnalytics:
    def test_euler_against_closed_forms(self):
        worst = 0.0
        for iters in range(1, 1025):
            out = refine.euler_solve(np.array([[1.0]]), None,
                                     lambda m, t, cond: m, iters)
            worst = max(worst, abs(out[0, 0] - (1 + 1 / iters) ** iters))
        rng = np.random.default_rng(9)
        const_exact = True
        for iters in (1, 2, 3, 5, 17, 128):
            c = rng.normal(size=(3, 4))
            m0 = rng.normal(size=(3, 4))
            out = refine.euler_solve(m0, None, lambda m, t, cond: c, iters)
            const_exact &= bool(np.max(np.abs(out - (m0 + c))) < 1e-12)
        check(5, "Euler solver reproduces (1+1/I)^I to 1e-12 for I in 1..1024 "
                 "and is exact on constant fields",
              worst < 1e-12 and const_exact, f"worst growth error {worst:.2e}")


class TestCriterion6SelfConsistencySoundness:
    def test_soundness(self):
        cfg = tiny_refine_cfg()
        rng = np.random.default_rng(10)
        fixed = rng.normal(size=(2, 3, 8))

        class TimeInvariant:
            def __call__(self, m_t, t, cond, rng=None):
                return Tensor(np.broadcast_to(fixed, m_t.shape).copy())

        m0 = Tensor(rng.normal(size=(2, 3, 8)))
        m = Tensor(rng.normal(size=(2, 3, 8)))
        cond = Tensor(np.zeros((2, 3, 8)))
        invariant_zero = refine.self_consistency_loss(
            TimeInvariant(), m0, m, cond, np.random.default_rng(11), cfg).item()

        class LinearInT:
            def __call__(self, m_t, t, cond, rng=None):
                return Tensor(np.broadcast_to(
                    np.asarray(t).reshape(-1, 1, 1), m_t.shape).copy())

        t, dt = refine.sample_consistency_times(np.random.default_rng(12), cfg, 1)
        assert t[0] + dt[0] < 1 - cfg.epsilon
        toy = refine.self_consistency_loss(
            LinearInT(), Tensor(np.zeros((1, 2, 4))), Tensor(np.ones((1, 2, 4))),
            Tensor(np.zeros((1, 2, 4))), np.random.default_rng(12), cfg).item()
        ok = invariant_zero == 0.0 and toy == pytest.approx(dt[0] ** 2, rel=1e-12)
        check(6, "self-consistency loss is 0 for time-invariant fields and "
                 "dt^2 for the v = t toy field", ok,
              f"invariant {invariant_zero}, toy {toy:.3e} vs dt^2 {dt[0]**2:.3e}")


class TestCriterion7FewStepGain:
    def test_few_step_refinement_gain(self, trained_coding_oc, trained_refine,
                                      heldout_mels, desk_cfg):
        model, _ = trained_coding_oc
        net_p1, net_p2, _ = trained_refine

        def mel_l2_for(net, iters):
            values = []
            for j, held in enumerate(heldout_mels):
                coarse = coarse_mel(held, model)
                rcfg = dataclasses.replace(desk_cfg.refine, iterations=iters)
                refined = refine.refine(coarse, net, rcfg,
                                        np.random.default_rng(1000 + j))
                values.append(np.mean((held.data - refined) ** 2))
            return float(np.mean(values))

        p2_i4 = mel_l2_for(net_p2, 4)
        p1_i32 = mel_l2_for(net_p1, 32)
        p1_i4 = mel_l2_for(net_p1, 4)
        ok = p2_i4 <= 1.25 * p1_i32 and p2_i4 < p1_i4
        check(7, "after self-consistency fine-tuning, I=4 refinement is within "
                 "1.25x the phase-1 I=32 error and beats phase-1 I=4",
              ok, f"p2@4 {p2_i4:.4f}, p1@32 {p1_i32:.4f}, p1@4 {p1_i4:.4f}")


class TestCriterion8RefinementDirection:
    def test_refinement_improves_over_coarse(self, trained_coding_oc,
                                             trained_refine, heldout_mels,
                                             desk_cfg):
        model, _ = trained_coding_oc
        _, net, _ = trained_refine
        refined_l1, coarse_l1 = [], []
        for j, held in enumerate(heldout_mels):
            coarse = coarse_mel(held, model)
            refined = refine.refine(coarse, net, desk_cfg.refine,
                                    np.random.default_rng(2000 + j))
            refined_l1.append(np.mean(np.abs(held.data - refined)))
            coarse_l1.append(np.mean(np.abs(held.data - coarse)))
        r, c = float(np.mean(refined_l1)), float(np.mean(coarse_l1))
        check(8, "refinement does not degrade the coarse mel on average "
                 "(mean |refined - M| <= mean |coarse - M|)",
              r <= c, f"refined {r:.4f} vs coarse {c:.4f}")


class TestCriterion9Bitstream:
    def test_fuzz_and_hand_layouts(self):
        rng = np.random.default_rng(13)
        bad = 0
        for _ in range(1000):
            k = int(rng.integers(2, 65536))
            count = int(rng.integers(0, 48))
            tokens = rng.integers(0, k, size=count)
            header = bs.StreamHeader(sample_rate=16000, hop=160, downsample=4,
                                     codebook_size=k, n_mels=80,
                                     token_count=count)
            out = bs.unpack_tokens(bs.pack_tokens(tokens, k), header)
            if not np.array_equal(out.tokens, tokens):
                bad += 1
        layout_ok = (bs.pack_tokens(np.array([0]), 1024) == bytes([0x00, 0x00])
                     and bs.pack_tokens(np.array([1023, 1]), 1024)
                     == bytes([0xFF, 0xC0, 0x10]))
        check(9, "1000-case pack/unpack round trip is exact and hand-derived "
                 "byte layouts match bit-for-bit",
              bad == 0 and layout_ok, f"{bad} round-trip failures")


class TestCriterion10DspOracles:
    def test_stft_and_filterbank_oracles(self):
        cfg = MelConfig()
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=int(rng.integers(64, 4097)))
            ours = dsp.stft(x, cfg)
            oracle = naive_stft(x, cfg)
            worst = max(worst, np.max(np.abs(ours - oracle))
                        / np.max(np.abs(oracle)))
        fb_err = np.max(np.abs(dsp.mel_filterbank(cfg) - reference_filterbank(cfg)))
        check(10, "stft matches the naive DFT oracle (<= 1e-6 rel) and the "
                  "filterbank matches an independent construction (<= 1e-10)",
              worst < 1e-6 and fb_err < 1e-10,
              f"stft rel {worst:.2e}, filterbank abs {fb_err:.2e}")


class TestCriterion11Determinism:
    def test_end_to_end_byte_identical(self, tmp_path):
        corpus = write_corpus(tmp_path / "corpus", 3, 1.5, seed=300)
        cfg = config.preset("desk")
        cfg.coding = dataclasses.replace(cfg.coding, steps=5)
        cfg.refine = dataclasses.replace(cfg.refine, phase1_steps=2,
                                         phase2_steps=1, batch_size=2)
        cfg_path = tmp_path / "cfg.json"
        config.to_json(cfg, cfg_path)
        test_wav = tmp_path / "input.wav"
        dsp.save_wav(test_wav, synth_clip(np.random.default_rng(4), 1.0), 16000)

        def full_run(tag):
            cod = tmp_path / f"cod_{tag}.fmck"
            full = tmp_path / f"full_{tag}.fmck"
            fmb = tmp_path / f"clip_{tag}.fmb"
            wav = tmp_path / f"out_{tag}.wav"
            assert cli.main(["train", "--stage", "coding", "--config",
                             str(cfg_path), "--corpus", *corpus,
                             "--out", str(cod)]) == 0
            assert cli.main(["train", "--stage", "refine", "--config",
                             str(cfg_path), "--corpus", *corpus,
                             "--out", str(full), "--coding-ckpt", str(cod)]) == 0
            assert cli.main(["encode", "--in", str(test_wav), "--model",
                             str(full), "--out", str(fmb)]) == 0
            assert cli.main(["decode", "--in", str(fmb), "--model", str(full),
                             "--out", str(wav)]) == 0
            return (cod.read_bytes(), full.read_bytes(),
                    fmb.read_bytes(), wav.read_bytes())

        first = full_run("a")
        second = full_run("b")
        ok = all(x == y for x, y in zip(first, second))
        check(11, "same-seed train+encode+decode runs are byte-identical "
                  "(checkpoints, token streams, wavs)", ok)
