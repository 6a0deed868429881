"""Output checks, computed apart from the program.

Every check raises `CheckFailed` with a one-line reason. The stream and
wav parsers here read the documented formats themselves; the token check
is an exhaustive nearest-codeword scan of its own. The program is used
only for what the check takes as given: the mel analysis and the encoder
whose latents the quantizer is handed.
"""

from __future__ import annotations

import csv
import math
import struct

import numpy as np

import synth

# .fmb header, little-endian: magic, version u8, f_s u32, w_s u16, r u8,
# K u16, D u8, token_count u32, pad_frames u8
FMB_HEADER = struct.Struct("<4sBIHBHBIB")

# Largest accepted mean |ln-mel(resynthesised wav) - ln-mel(vocoder input)|:
# a sanity ceiling, not the regression guard (that is the resynth_mel_l1
# metric's bound). Working decodes read about 0.62 at both presets; a
# vocoder that drops the top three quarters of the spectrum reads about 3.4.
RESYNTH_L1_BOUND = 1.0


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_stream(path) -> tuple[dict, np.ndarray, int]:
    """(header fields, tokens, payload bytes) of an .fmb file."""
    with open(path, "rb") as f:
        blob = f.read()
    require(len(blob) >= FMB_HEADER.size, f"{path}: shorter than a header")
    magic, version, rate, hop, r, k, d, count, pad = FMB_HEADER.unpack_from(blob)
    header = {"magic": magic, "version": version, "sample_rate": rate,
              "hop": hop, "downsample": r, "codebook_size": k, "n_mels": d,
              "token_count": count, "pad_frames": pad}
    payload = blob[FMB_HEADER.size:]
    width = max(1, math.ceil(math.log2(k))) if k >= 2 else 1
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    bits = bits[:count * width]
    require(len(bits) == count * width,
            f"{path}: payload holds {len(bits)} bits, header needs {count * width}")
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    tokens = bits.reshape(count, width).astype(np.int64) @ weights
    return header, tokens, len(payload)


def check_stream(path, cfg, n_samples: int) -> tuple[dict, np.ndarray]:
    """Header equals the config; token count and payload size are exact."""
    header, tokens, payload_bytes = read_stream(path)
    expect = {"magic": b"FMB1", "version": 1,
              "sample_rate": cfg.mel.sample_rate, "hop": cfg.mel.hop,
              "downsample": cfg.coding.downsample,
              "codebook_size": cfg.coding.codebook_size,
              "n_mels": cfg.mel.n_mels}
    for key, value in expect.items():
        require(header[key] == value,
                f"header {key}={header[key]!r}, config says {value!r}")
    frames = math.ceil(n_samples / cfg.mel.hop)
    count = math.ceil(frames / cfg.coding.downsample)
    require(header["token_count"] == count,
            f"token_count {header['token_count']} != ceil(ceil(n/hop)/r) = {count}")
    require(header["pad_frames"] == count * cfg.coding.downsample - frames,
            f"pad_frames {header['pad_frames']} != {count * cfg.coding.downsample - frames}")
    width = math.ceil(math.log2(cfg.coding.codebook_size))
    require(payload_bytes == math.ceil(count * width / 8),
            f"payload {payload_bytes} bytes != ceil({count}*{width}/8)")
    return header, tokens


def payload_bps(count: int, k: int, n_samples: int, rate: int) -> float:
    return count * math.ceil(math.log2(k)) / (n_samples / rate)


def check_printed_bps(stdout: str, count: int, k: int, n_samples: int,
                      rate: int) -> float:
    """The encoder's printed "<x> bps" equals payload bits / duration."""
    bps = payload_bps(count, k, n_samples, rate)
    printed = [line.split()[0] for line in stdout.splitlines()
               if line.strip().endswith(" bps")]
    require(len(printed) == 1, f"encode printed no single bps line: {stdout!r}")
    require(printed[0] == f"{bps:.1f}",
            f"printed {printed[0]} bps, payload bits / duration = {bps:.4f}")
    return bps


def nearest_codewords(latents: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Exhaustive Euclidean scan; the lowest index wins ties."""
    tokens = np.empty(len(latents), dtype=np.int64)
    for i, z in enumerate(latents):
        dist = np.sqrt(((codebook - z) ** 2).sum(axis=1))
        tokens[i] = int(np.flatnonzero(dist == dist.min())[0])
    return tokens


def check_tokens(tokens: np.ndarray, latents: np.ndarray,
                 codebook: np.ndarray) -> None:
    expected = nearest_codewords(latents, codebook)
    require(tokens.shape == expected.shape,
            f"{len(tokens)} tokens for {len(expected)} latent frames")
    wrong = np.flatnonzero(tokens != expected)
    require(len(wrong) == 0,
            f"{len(wrong)} of {len(tokens)} tokens are not the nearest codeword "
            f"(first at frame {wrong[0] if len(wrong) else -1})")


def check_wav(path, rate: int, n_frames: int, hop: int) -> np.ndarray:
    """Decoded wav: header rate, length N*hop, not silent. (16-bit PCM
    cannot hold a non-finite sample; the program refuses to write one.)"""
    samples, wav_rate = synth.read_wav(path)
    require(wav_rate == rate, f"wav rate {wav_rate} != stream rate {rate}")
    require(len(samples) == n_frames * hop,
            f"wav has {len(samples)} samples, expected {n_frames}*{hop}")
    rms = float(np.sqrt(np.mean(samples ** 2)))
    require(rms > 1e-4, f"decoded wav is silent (rms {rms:.2e})")
    return samples


def resynth_l1(resynth_mel: np.ndarray, vocoder_mel: np.ndarray) -> float:
    """Mean |ln-mel of the decoded wav - the mel handed to the vocoder|."""
    require(resynth_mel.shape == vocoder_mel.shape,
            f"resynthesised mel {resynth_mel.shape} != vocoder input "
            f"{vocoder_mel.shape}")
    value = float(np.mean(np.abs(resynth_mel - vocoder_mel)))
    require(math.isfinite(value) and value < RESYNTH_L1_BOUND,
            f"resynth mel L1 {value:.4f} not under {RESYNTH_L1_BOUND}")
    return value


def check_identical(a: bytes, b: bytes, what: str) -> None:
    require(a == b, f"{what} differ between two runs on the same input")


def check_velocity_evals(count: int, iterations: int) -> None:
    require(count == iterations,
            f"{count} velocity evaluations in one decode, expected I={iterations}")


def read_loss_csv(path, columns: list[str]) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    require(bool(rows) and list(rows[0]) == columns,
            f"{path}: columns {list(rows[0]) if rows else []} != {columns}")
    return rows


def _decreasing(values: list[float], what: str) -> None:
    q = max(1, len(values) // 4)
    first, last = float(np.mean(values[:q])), float(np.mean(values[-q:]))
    require(last < first, f"{what}: last-quarter mean {last:.4f} is not below "
                          f"first-quarter mean {first:.4f}")


def check_coding_log(path, cfg, decreasing: bool = True) -> None:
    rows = read_loss_csv(path, ["step", "mel_rec", "vq", "utilization"])
    require(len(rows) == cfg.coding.steps,
            f"{path}: {len(rows)} rows for {cfg.coding.steps} steps")
    values = np.array([[float(r["mel_rec"]), float(r["vq"]), float(r["utilization"])]
                       for r in rows])
    require(bool(np.all(np.isfinite(values))), f"{path}: non-finite loss")
    # The reconstruction term, not the weighted total: the VQ term starts
    # near 0 (the first refresh puts codewords on the latents) and grows
    # while the encoder moves, so over 30 desk steps the total's fall
    # ranges from 2 % to 27 % across seeds, the reconstruction's from 31 %
    # to 41 %.
    if decreasing:
        _decreasing(list(values[:, 0]), "coding mel reconstruction loss")


def check_refine_log(path, cfg, decreasing: bool = True) -> None:
    rows = read_loss_csv(path, ["step", "phase", "cfm", "self_cons"])
    p1, p2 = cfg.refine.phase1_steps, cfg.refine.phase2_steps
    require(len(rows) == p1 + p2, f"{path}: {len(rows)} rows for {p1}+{p2} steps")
    require([r["phase"] for r in rows] == ["1"] * p1 + ["2"] * p2,
            f"{path}: phase column is not {p1} x 1 then {p2} x 2")
    cfm = np.array([float(r["cfm"]) for r in rows])
    sc = np.array([float(r["self_cons"]) for r in rows])
    require(bool(np.all(np.isfinite(cfm)) and np.all(np.isfinite(sc))),
            f"{path}: non-finite loss")
    require(bool(np.all(sc[:p1] == 0.0)), "self_cons is not 0 in phase 1")
    require(bool(np.all(sc[p1:] > 0.0)), "self_cons is not > 0 in phase 2")
    if decreasing:
        _decreasing(list(cfm), "refine cfm loss")
