"""The three workloads and the operations they repeat.

Each operation drives melcodec the way a user does, through in-process
`melcodec encode|decode|train` calls, and is checked afterwards by
`checks`, outside the timed region.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import synth
from common import coding, config, dsp, run_cli

ITERS = 4  # Euler steps per decode (I)

# Set-up checkpoints: step counts cut to a handful, as the determinism
# acceptance criterion does; the weights are untrained, which is fine for
# timing, and the velocity net has left its zero-initialised output.
_SETUP_DESK = {"coding": {"steps": 8, "batch_size": 2},
               "refine": {"phase1_steps": 4, "phase2_steps": 4, "batch_size": 2}}
_SETUP_PAPER = {"coding": {"steps": 3, "batch_size": 1},
                "refine": {"phase1_steps": 3, "phase2_steps": 2, "batch_size": 1}}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    corpus: tuple[int, float]            # set-up corpus: clips, seconds each
    setup: dict                          # config overrides, set-up training
    lengths: tuple[float, ...] = ()      # codec: encode+decode ops of a round
    encode_lengths: tuple[float, ...] = ()  # codec: encode-only ops after them
    train: dict = field(default_factory=dict)  # train: overrides per op
    probes: int = 1  # round trips of the probe clip per set-up
    # codec: training overrides of a warm training run in each set-up, after
    # the timed part, whose step intervals give the step metrics; None takes
    # them from the set-up's own (cold, short) training
    step_probe: dict | None = None

    @property
    def kind(self) -> str:
        return "codec" if self.lengths else "train"


WORKLOADS = {w.name: w for w in [
    # Short utterances at the tiny preset: the vocoder and per-call overhead
    # dominate, the quantizer and attention barely show.
    # Its set-up training lasts about a second, too short to time steps at
    # this size, so each set-up also runs a longer, warm step probe.
    Workload("codec-desk-short", "desk", (3, 1.5), _SETUP_DESK,
             lengths=(1.0, 2.0, 3.0, 4.0, 5.0),
             step_probe={"coding": {"steps": 24, "batch_size": 2},
                         "refine": {"phase1_steps": 12, "phase2_steps": 8,
                                    "batch_size": 2}}),
    # The published 250 bps configuration on 15-25 s utterances: model
    # layers, quadratic attention and the [N, K, C] distance tensor show.
    # A decode takes about as long as its audio here, so a round decodes the
    # 15 s utterance and only encodes the 25 s one, which puts the longest
    # input into encode_rtf and peak memory for a tenth more time.
    Workload("codec-paper16k-long", "paper-16k", (2, 1.5), _SETUP_PAPER,
             lengths=(15.0,), encode_lengths=(25.0,)),
    # Training only: autodiff tape, backward, AdamW, online clustering and
    # the mel analysis of crops; never the vocoder.
    # Its codec metrics come from the set-up probes: the first round trip
    # of each set-up process warms it up, the other two are measured.
    Workload("train-desk", "desk", (30, 3.0), _SETUP_DESK,
             train={"coding": {"steps": 60},
                    "refine": {"phase1_steps": 15, "phase2_steps": 8}},
             probes=3),
]}

# Untimed training run before a training loop, so that its first operation
# does not pay the process's first-call and heap-growth costs.
WARM_UP_TRAIN = {"coding": {"steps": 5},
                 "refine": {"phase1_steps": 2, "phase2_steps": 2}}

# Seconds of seeded jitter added to each nominal utterance length.
LENGTH_JITTER = 0.25
PROBE_SECONDS = 1.0


class OpFailed(RuntimeError):
    pass


def _utterance(rng: np.random.Generator, seconds: float) -> np.ndarray:
    n = int(round((seconds + rng.uniform(0.0, LENGTH_JITTER)) * synth.SAMPLE_RATE))
    return synth.speech_clip(rng, n)


def clip_for(seed: int, index: int, seconds: float) -> np.ndarray:
    """Operation `index`'s utterance, about `seconds` long."""
    return _utterance(np.random.default_rng([seed, 1, index]), seconds)


def probe_clip(seed: int) -> np.ndarray:
    """The set-up's round-trip clip."""
    return _utterance(np.random.default_rng([seed, 2]), PROBE_SECONDS)


def write_config(path: Path, preset: str, overrides: dict, seed: int) -> None:
    doc = {"preset": preset, "seed": seed, **overrides}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _cli(argv) -> str:
    code, out, err = run_cli(argv)
    if code != 0:
        raise OpFailed(f"melcodec {argv[0]} exited {code}: {err.strip()}")
    return out


# ---------------------------------------------------------------------------
# codec operation: one encode, then one decode
# ---------------------------------------------------------------------------

def codec_op(model: Path, wav_in: Path, workdir: Path, tag: str, hooks,
             decode: bool = True) -> dict:
    fmb, wav_out = workdir / f"{tag}.fmb", workdir / f"{tag}.out.wav"
    t0 = time.perf_counter()
    stdout = _cli(["encode", "--in", wav_in, "--model", model, "--out", fmb])
    op = {"encode_s": time.perf_counter() - t0, "stdout": stdout,
          "wav_in": wav_in, "fmb": fmb}
    if decode:
        t1 = time.perf_counter()
        _cli(["decode", "--in", fmb, "--model", model, "--out", wav_out,
              "--iters", ITERS])
        op["decode_s"] = time.perf_counter() - t1
        op["wav"] = wav_out
        op["vocoder_mel"] = hooks.vocoder_mels.pop().data
        hooks.vocoder_mels.clear()
    return op


class CodecVerifier:
    """Checks a codec operation against the model it ran with."""

    def __init__(self, model: Path):
        self.cfg = config.from_json(str(model) + ".json")
        self.model = coding.load_coding_model(model, self.cfg.mel, self.cfg.coding)

    def verify(self, op: dict) -> dict:
        cfg = self.cfg
        samples, _ = synth.read_wav(op["wav_in"])  # what the encoder read
        n = len(samples)
        header, tokens = checks.check_stream(op["fmb"], cfg, n)
        bps = checks.check_printed_bps(op["stdout"], header["token_count"],
                                       header["codebook_size"], n,
                                       header["sample_rate"])
        latents = coding.encode(dsp.mel_spectrogram(samples, cfg.mel), self.model)
        checks.check_tokens(tokens, latents, self.model.codebook.data)
        result = {"seconds": n / header["sample_rate"],
                  "encode_s": op["encode_s"], "payload_bps": bps}
        if "wav" in op:
            wav = checks.check_wav(op["wav"], header["sample_rate"],
                                   math.ceil(n / cfg.mel.hop), cfg.mel.hop)
            result["decode_s"] = op["decode_s"]
            result["resynth_mel_l1"] = checks.resynth_l1(
                dsp.mel_spectrogram(wav, cfg.mel).data, op["vocoder_mel"])
        return result


# ---------------------------------------------------------------------------
# training operation: train --stage coding, then train --stage refine
# ---------------------------------------------------------------------------

def train_op(corpus: list[str], cfg_path: Path, workdir: Path, tag: str,
             hooks) -> dict:
    """Returns the checkpoint, loss logs and optimizer-step intervals by
    stage; an interval belongs to the phase of the step that ends it."""
    cfg = config.from_json(cfg_path)
    cod, full = workdir / f"{tag}-coding.fmck", workdir / f"{tag}.fmck"
    hooks.step_times.clear()
    _cli(["train", "--stage", "coding", "--config", cfg_path,
          "--corpus", *corpus, "--out", cod])
    coding_steps = np.diff(hooks.step_times)
    hooks.step_times.clear()
    _cli(["train", "--stage", "refine", "--config", cfg_path,
          "--corpus", *corpus, "--coding-ckpt", cod, "--out", full])
    refine_steps = np.diff(hooks.step_times)
    hooks.step_times.clear()
    p1 = cfg.refine.phase1_steps
    return {"model": full, "cfg": cfg,
            "coding_log": Path(str(cod) + ".loss.csv"),
            "refine_log": Path(str(full) + ".loss.csv"),
            "coding_step_s": list(coding_steps),
            "refine_step_s": list(refine_steps[:p1 - 1]),
            "refine_sc_step_s": list(refine_steps[p1 - 1:])}


def verify_train(op: dict, decreasing: bool) -> None:
    checks.check_coding_log(op["coding_log"], op["cfg"], decreasing)
    checks.check_refine_log(op["refine_log"], op["cfg"], decreasing)
