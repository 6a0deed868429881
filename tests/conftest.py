"""Shared fixtures: a deterministic synthetic speech-like corpus and the
session-scoped trained models used by the directional and acceptance tests."""

import dataclasses

import numpy as np
import pytest

from melcodec import coding, config, dsp, refine
from melcodec.codec import Codec


def _harmonic_stack(phase, rolloff, formant, bandwidth, f_inst, n_harm=13):
    x = np.zeros_like(phase)
    for h in range(1, n_harm + 1):
        amp = (1.0 / h ** rolloff) * (
            1.0 + 2.5 * np.exp(-((h * f_inst - formant) ** 2)
                               / (2 * bandwidth ** 2)))
        x += amp * np.sin(h * phase)
    return x


def synth_clip(rng, seconds, sr=16000):
    """Speech-like harmonic clip: steady tone, log chirp, or two-tone, with a
    formant resonance and a pitch-locked amplitude envelope.

    All structure within a clip is a deterministic function of the per-clip
    parameters (plus a tiny noise floor), so the mapping from coded tokens
    back to the mel is learnable; diversity across clips comes from the
    parameter draws and exercises the quantizer."""
    n = int(seconds * sr)
    t = np.arange(n) / sr
    kind = rng.integers(3)
    rolloff = rng.uniform(0.6, 1.4)
    formant = rng.uniform(400.0, 3200.0)
    bandwidth = rng.uniform(250.0, 900.0)
    vibrato = 1.0 + 0.02 * np.sin(2 * np.pi * 5.5 * t)
    if kind == 0:
        f_inst = rng.uniform(70.0, 350.0) * vibrato
    elif kind == 1:
        fa, fb = sorted(rng.uniform(70.0, 350.0, size=2))
        f_inst = fa * (fb / fa) ** (t / seconds) * vibrato
    else:
        f_inst = rng.uniform(70.0, 250.0) * vibrato
    phase = 2 * np.pi * np.cumsum(f_inst) / sr
    x = _harmonic_stack(phase, rolloff, formant, bandwidth, f_inst)
    if kind == 2:
        ratio = rng.uniform(1.3, 1.8)
        x = x + 0.7 * _harmonic_stack(phase * ratio, rolloff, formant,
                                      bandwidth, f_inst * ratio, n_harm=8)
    env_rate = np.mean(f_inst) / 60.0
    env = 0.2 + 0.8 * (0.5 + 0.5 * np.sin(2 * np.pi * env_rate * t))
    x = x * env + 0.003 * rng.normal(size=n)
    return 0.5 * x / np.max(np.abs(x))


def write_corpus(directory, n_clips, seconds, seed, sr=16000):
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(n_clips):
        path = directory / f"clip{i:02d}.wav"
        dsp.save_wav(path, synth_clip(rng, seconds, sr), sr)
        paths.append(str(path))
    return paths


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    """Training corpus: 30 clips x 3 s = 90 s at 16 kHz."""
    return write_corpus(tmp_path_factory.mktemp("toy_train"), 30, 3.0, seed=100)


@pytest.fixture(scope="session")
def heldout_corpus(tmp_path_factory):
    """Held-out clips from the same generator, disjoint seeds."""
    return write_corpus(tmp_path_factory.mktemp("toy_held"), 5, 2.0, seed=200)


@pytest.fixture(scope="session")
def heldout_mels(heldout_corpus):
    cfg = config.preset("desk")
    return [dsp.mel_spectrogram(dsp.load_wav(p)[0], cfg.mel)
            for p in heldout_corpus]


@pytest.fixture(scope="session")
def desk_cfg():
    return config.preset("desk")


@pytest.fixture(scope="session")
def trained_coding_oc(toy_corpus, tmp_path_factory, desk_cfg):
    """Desk coding stage with online clustering, trained once per session."""
    out = tmp_path_factory.mktemp("models") / "coding_oc.fmck"
    model = coding.train_coding(toy_corpus, desk_cfg, out)
    return model, out


@pytest.fixture(scope="session")
def trained_coding_nooc(toy_corpus, tmp_path_factory):
    """Same run with the online-clustering refresh disabled (same seed)."""
    cfg = config.preset("desk")
    cfg.coding = dataclasses.replace(cfg.coding, online_clustering=False)
    out = tmp_path_factory.mktemp("models_nooc") / "coding_nooc.fmck"
    model = coding.train_coding(toy_corpus, cfg, out)
    return model, out


@pytest.fixture(scope="session")
def trained_refine(toy_corpus, trained_coding_oc, tmp_path_factory, desk_cfg):
    """Two-phase refinement training; returns (phase1-only net, final net)."""
    model, _ = trained_coding_oc
    outdir = tmp_path_factory.mktemp("models_refine")
    final_path = outdir / "refine.fmck"
    p1_path = outdir / "refine_phase1.fmck"
    net = refine.train_refine(toy_corpus, model, desk_cfg, final_path,
                              phase1_checkpoint_out=p1_path)
    net_p1 = Codec.load(p1_path, desk_cfg).net
    return net_p1, net, final_path
