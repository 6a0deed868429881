"""Command-line surface: encode, decode, train, eval.

Each command parses its arguments, resolves the configuration and prints the
outcome; encode and decode run through `codec.Codec`, which loads the
checkpoint and checks a stream against the model. A `<ckpt>.json` sidecar
written at train time lets encode/decode rebuild the architecture without
flags.
The FMC_SEED environment variable overrides the configured seed.
MELCODEC_DEBUG=1 makes `main` re-raise failures with their traceback
instead of printing one `error:` line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np
from scipy.fft import dct

from . import bitstream as bs
from . import coding, dsp, refine
from .codec import Codec
from .config import PipelineConfig, from_json, preset, to_json
from .dsp import MelSpectrogram


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def mcd(m_ref: MelSpectrogram, m_deg: MelSpectrogram) -> float:
    """Mel cepstral distortion in dB.

    Per frame: orthonormal DCT-II of the log-mel row, coefficients 1..13
    (c0 excluded, so constant offsets cost nothing), then
    (10/ln 10) * sqrt(2 * sum of squared differences), averaged over frames.
    """
    a, b = m_ref.data, m_deg.data
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empty mel input")
    n = min(a.shape[0], b.shape[0])
    ca = dct(a[:n], type=2, norm="ortho", axis=1)[:, 1:14]
    cb = dct(b[:n], type=2, norm="ortho", axis=1)[:, 1:14]
    per_frame = (10.0 / np.log(10.0)) * np.sqrt(2.0 * ((ca - cb) ** 2).sum(axis=1))
    return float(per_frame.mean())


def mel_l1(m_ref: MelSpectrogram, m_deg: MelSpectrogram) -> float:
    n = min(m_ref.n_frames, m_deg.n_frames)
    return float(np.mean(np.abs(m_ref.data[:n] - m_deg.data[:n])))


def mel_l2(m_ref: MelSpectrogram, m_deg: MelSpectrogram) -> float:
    n = min(m_ref.n_frames, m_deg.n_frames)
    return float(np.mean((m_ref.data[:n] - m_deg.data[:n]) ** 2))


# ---------------------------------------------------------------------------
# config / model resolution
# ---------------------------------------------------------------------------

def _resolve_config(args, model_path=None) -> PipelineConfig:
    if getattr(args, "config", None):
        cfg = from_json(args.config)
    elif model_path is not None and Path(str(model_path) + ".json").exists():
        cfg = from_json(str(model_path) + ".json")
    elif getattr(args, "preset", None):
        cfg = preset(args.preset)
    else:
        cfg = PipelineConfig()
    if os.environ.get("FMC_SEED"):
        cfg.seed = int(os.environ["FMC_SEED"])
    return cfg


def _expand_corpus(entries) -> list[str]:
    paths: list[str] = []
    for entry in entries:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(str(q) for q in p.glob("*.wav")))
        else:
            paths.append(str(p))
    if not paths:
        raise ValueError("no wav files in corpus")
    return paths


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_encode(args) -> int:
    codec = Codec.load(args.model, _resolve_config(args, args.model),
                       need_refine=False)
    samples, rate = dsp.load_wav(args.infile)
    header, tokens = codec.encode(samples, rate)
    bs.write_stream(args.out, header, tokens)
    bps = bs.payload_bits(len(tokens), header.codebook_size) / (len(samples) / rate)
    print(f"{bps:.1f} bps")
    return 0


def cmd_decode(args) -> int:
    header, seq = bs.read_stream(args.infile)
    codec = Codec.load(args.model, _resolve_config(args, args.model),
                       need_refine=not args.no_refine)
    samples = codec.decode(header, seq.tokens, args.iters)
    dsp.save_wav(args.out, samples, header.sample_rate)
    print(f"wrote {args.out} ({len(samples) / header.sample_rate:.2f} s)")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    if args.corpus:
        cfg.corpus = args.corpus
    if args.out:
        cfg.checkpoint = args.out
    if args.coding_ckpt:
        cfg.coding_checkpoint = args.coding_ckpt
    if not cfg.checkpoint:
        raise ValueError("no output checkpoint path (--out or paths.checkpoint)")
    corpus = _expand_corpus(cfg.corpus)
    if args.stage == "coding":
        coding.train_coding(corpus, cfg, cfg.checkpoint, log_csv=cfg.loss_csv)
    else:
        if not cfg.coding_checkpoint:
            raise ValueError("refine stage needs a coding checkpoint "
                             "(--coding-ckpt or paths.coding_checkpoint)")
        if not Path(cfg.coding_checkpoint).exists():
            raise ValueError(f"coding checkpoint not found: {cfg.coding_checkpoint}")
        model = coding.load_coding_model(cfg.coding_checkpoint, cfg.mel, cfg.coding)
        refine.train_refine(corpus, model, cfg, cfg.checkpoint,
                            log_csv=cfg.loss_csv)
    to_json(cfg, str(cfg.checkpoint) + ".json")
    print(f"wrote {cfg.checkpoint}")
    return 0


def cmd_eval(args) -> int:
    ref, rate_ref = dsp.load_wav(args.ref)
    deg, rate_deg = dsp.load_wav(args.deg)
    if rate_ref != rate_deg:
        raise ValueError(f"sample-rate mismatch: {rate_ref} vs {rate_deg}")
    cfg = _resolve_config(args)
    mel_cfg = dataclasses.replace(cfg.mel, sample_rate=rate_ref,
                                  fmax=rate_ref / 2)
    m_ref = dsp.mel_spectrogram(ref, mel_cfg)
    m_deg = dsp.mel_spectrogram(deg, mel_cfg)
    metrics = {
        "mcd_db": mcd(m_ref, m_deg),
        "mel_l1": mel_l1(m_ref, m_deg),
        "mel_l2": mel_l2(m_ref, m_deg),
    }
    duration = len(deg) / rate_deg
    print(f"mcd: {metrics['mcd_db']:.4f} dB")
    print(f"mel_l1: {metrics['mel_l1']:.6f}")
    print(f"mel_l2: {metrics['mel_l2']:.6f}")
    print(f"duration: {duration:.2f} s")
    if args.csv:
        new = not Path(args.csv).exists()
        with open(args.csv, "a", newline="") as f:
            writer = csv.writer(f)
            if new:
                writer.writerow(["file", "mcd_db", "mel_l1", "mel_l2", "bps"])
            writer.writerow([args.deg, f"{metrics['mcd_db']:.6f}",
                             f"{metrics['mel_l1']:.6f}",
                             f"{metrics['mel_l2']:.6f}", ""])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melcodec",
        description="Ultra-low-bitrate mel-spectrogram speech codec")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="wav -> token stream (.fmb)")
    enc.add_argument("--in", dest="infile", required=True)
    enc.add_argument("--model", required=True)
    enc.add_argument("--out", required=True)
    enc.add_argument("--config")
    enc.add_argument("--preset")
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="token stream -> wav")
    dec.add_argument("--in", dest="infile", required=True)
    dec.add_argument("--model", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--iters", type=int, default=None,
                     help="ODE iterations for refinement")
    dec.add_argument("--no-refine", action="store_true",
                     help="decode the coarse mel without refinement")
    dec.add_argument("--config")
    dec.add_argument("--preset")
    dec.set_defaults(func=cmd_decode)

    tr = sub.add_parser("train", help="train one stage")
    tr.add_argument("--stage", choices=("coding", "refine"), required=True)
    tr.add_argument("--config")
    tr.add_argument("--preset")
    tr.add_argument("--corpus", nargs="+")
    tr.add_argument("--out")
    tr.add_argument("--coding-ckpt", dest="coding_ckpt")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="objective metrics between two wavs")
    ev.add_argument("--ref", required=True)
    ev.add_argument("--deg", required=True)
    ev.add_argument("--csv")
    ev.add_argument("--config")
    ev.add_argument("--preset")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single surface for operator-facing failures
        if os.environ.get("MELCODEC_DEBUG") == "1":
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
