"""Waveform I/O, STFT/mel analysis, and a deterministic mel-to-waveform path.

Analysis follows the HiFi-GAN-style convention: periodic Hann window of the
frame length zero-padded to the FFT size, reflect-centered frames, natural-log
compression of magnitude mel energies with a 1e-5 floor. The decode direction
uses non-negative least squares to invert the filterbank followed by
Griffin-Lim phase reconstruction, standing in for a neural vocoder.

The filterbank is built once per band geometry and cached read-only, together
with its CSR forms and the FISTA step 1/||fb||_2^2 the inversion needs. The
NNLS solve checks the residual norm every 10 iterations and stops once it fell
by no more than 0.3 % since the previous check, or after 400 iterations.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse


@dataclass
class MelConfig:
    sample_rate: int = 16000
    frame_length: int = 640
    hop: int = 160
    fft_size: int = 1024
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float | None = None
    log_floor: float = 1e-5

    def __post_init__(self):
        if self.fmax is None:
            self.fmax = self.sample_rate / 2
        if self.frame_length > self.fft_size:
            raise ValueError("frame_length must not exceed fft_size")
        if self.hop > self.frame_length:
            raise ValueError("hop must not exceed frame_length")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise ValueError(f"require 0 <= fmin < fmax <= sample_rate/2, "
                             f"got fmin={self.fmin} fmax={self.fmax}")


@dataclass
class MelSpectrogram:
    """Frame-major log-mel matrix [N, D]."""
    data: np.ndarray
    config: MelConfig = field(repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError("mel data must be 2-D [frames, bins]")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("mel data contains non-finite entries")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]


# ---------------------------------------------------------------------------
# RIFF/WAVE 16-bit PCM mono
# ---------------------------------------------------------------------------

def load_wav(path) -> tuple[np.ndarray, int]:
    """Read a 16-bit PCM mono wav; samples scaled by 1/32768 into [-1, 1]."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    offset = 12
    fmt = None
    data = None
    while offset + 8 <= len(blob):
        chunk_id = blob[offset:offset + 4]
        (chunk_size,) = struct.unpack_from("<I", blob, offset + 4)
        body = blob[offset + 8:offset + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise ValueError(f"{path}: fmt chunk holds {len(body)} bytes, "
                                 "fewer than 16")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise ValueError(f"{path}: truncated data chunk "
                                 f"({len(body)} of {chunk_size} bytes)")
            data = body
        offset += 8 + chunk_size + (chunk_size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1 or bits != 16:
        raise ValueError(f"{path}: only 16-bit PCM supported "
                         f"(format={audio_format}, bits={bits})")
    if channels != 1:
        raise ValueError(f"{path}: only mono supported, got {channels} channels")
    if len(data) % 2:
        raise ValueError(f"{path}: data chunk holds {len(data)} bytes, not a "
                         "whole number of 16-bit samples")
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    return samples, sample_rate


def save_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write 16-bit PCM mono; samples are clipped to [-1, 1] first."""
    samples = np.asarray(samples, dtype=np.float64)
    clipped = np.clip(samples, -1.0, 1.0)
    ints = np.clip(np.round(clipped * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    with open(path, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 36 + len(payload)))
        f.write(b"WAVE")
        f.write(b"fmt ")
        f.write(struct.pack("<IHHIIHH", 16, 1, 1, sample_rate,
                            sample_rate * 2, 2, 16))
        f.write(b"data")
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _hann(length: int) -> np.ndarray:
    # periodic Hann, matching the vocoder convention
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def _frame_signal(x: np.ndarray, cfg: MelConfig) -> np.ndarray:
    """Strided read-only view [N, frame_length] of the reflect-padded signal."""
    n_frames = int(np.ceil(len(x) / cfg.hop))
    xpad = np.pad(x, cfg.frame_length // 2, mode="reflect")
    return sliding_window_view(xpad, cfg.frame_length)[::cfg.hop][:n_frames]


def stft(x: np.ndarray, cfg: MelConfig) -> np.ndarray:
    """Complex spectrogram [N, fft_size/2 + 1] with N = ceil(len(x)/hop)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("stft input must be a non-empty 1-D signal")
    frames = _frame_signal(x, cfg) * _hann(cfg.frame_length)[None, :]
    return np.fft.rfft(frames, n=cfg.fft_size, axis=1)


def mel_scale(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class _Filterbank:
    """A mel filterbank with what NNLS inversion needs of it."""
    dense: np.ndarray          # [D, bins], read-only
    matrix: sparse.csr_array   # dense in CSR form
    adjoint: sparse.csr_array  # dense.T in CSR form
    step: float                # FISTA step 1 / ||dense||_2^2

    @property
    def shape(self) -> tuple[int, int]:
        """[D, bins], as for the dense matrix."""
        return self.dense.shape


@functools.lru_cache(maxsize=16)
def _build_filterbank(sample_rate: int, fft_size: int, n_mels: int,
                      fmin: float, fmax: float) -> _Filterbank:
    n_bins = fft_size // 2 + 1
    bin_freqs = np.arange(n_bins) * sample_rate / fft_size
    mel_points = np.linspace(mel_scale(fmin), mel_scale(fmax), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    fb = np.zeros((n_mels, n_bins))
    for d in range(n_mels):
        left, center, right = hz_points[d], hz_points[d + 1], hz_points[d + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        fb[d] = np.maximum(0.0, np.minimum(rising, falling))
        if not fb[d].any():
            raise ValueError(f"mel filter {d} is empty; n_mels too large for "
                             f"fft_size={fft_size}")
    fb.flags.writeable = False
    return _Filterbank(fb, sparse.csr_array(fb), sparse.csr_array(fb.T),
                       1.0 / np.linalg.norm(fb, 2) ** 2)


def _filterbank(cfg: MelConfig) -> _Filterbank:
    return _build_filterbank(cfg.sample_rate, cfg.fft_size, cfg.n_mels,
                             cfg.fmin, cfg.fmax)


def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular filters [D, fft_size/2 + 1], peaks equally spaced in mel.

    Built once per band geometry; every caller shares the read-only array.
    """
    return _filterbank(cfg).dense


def mel_spectrogram(x: np.ndarray, cfg: MelConfig) -> MelSpectrogram:
    """ln(max(filterbank @ |STFT|, log_floor)), frame-major [N, D]."""
    spec = np.abs(stft(x, cfg))  # [N, bins]
    mel = spec @ mel_filterbank(cfg).T  # [N, D]
    return MelSpectrogram(np.log(np.maximum(mel, cfg.log_floor)), cfg)


# ---------------------------------------------------------------------------
# synthesis fallback
# ---------------------------------------------------------------------------

def _overlap_add(blocks: np.ndarray) -> np.ndarray:
    """Sum [n, R, hop] frame blocks placed one hop apart.

    Block k of frame i lands on output block i + k. Adding k from R-1 down to
    0 accumulates each output sample over frames in increasing order, as a
    per-frame loop would, so the sums are bit-identical to it.
    """
    n, r, hop = blocks.shape
    out = np.zeros((n + r - 1, hop))
    for k in range(r - 1, -1, -1):
        out[k:k + n] += blocks[:, k]
    return out.reshape(-1)


def _synthesis_window(cfg: MelConfig, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What `_istft` of n frames needs besides the spectrum: the Hann window,
    the mask of samples where the overlap-added squared window exceeds
    1e-11, and that sum at those samples."""
    hop, width = cfg.hop, cfg.frame_length
    r = -(-width // hop)  # frames zero-padded to r whole hops
    window = _hann(width)
    window_sq = np.zeros(r * hop)
    window_sq[:width] = window ** 2
    wsum = _overlap_add(np.broadcast_to(window_sq.reshape(1, r, hop), (n, r, hop)))
    good = wsum > 1e-11
    return window, good, wsum[good]


def _istft(spec: np.ndarray, cfg: MelConfig, length: int,
           synthesis: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Windowed overlap-add inverse of `stft`, trimmed to the given length;
    `synthesis` is `_synthesis_window(cfg, len(spec))`."""
    n, hop, width = spec.shape[0], cfg.hop, cfg.frame_length
    r = -(-width // hop)
    window, good, wsum = synthesis
    frames = np.zeros((n, r * hop))
    np.multiply(np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, :width],
                window[None, :], out=frames[:, :width])
    out = _overlap_add(frames.reshape(n, r, hop))
    out[good] /= wsum
    pad = width // 2
    out = out[pad:pad + length]
    if len(out) < length:
        out = np.pad(out, (0, length - len(out)))
    return out


def _nnls(fb: _Filterbank, targets: np.ndarray, iterations: int = 400) -> np.ndarray:
    """FISTA (Beck & Teboulle, 2009) for min ||fb @ S - targets||^2, S >= 0.

    targets is [D, N]; returns S [bins, N]. Deterministic and vectorized over
    frames. Every 10 iterations the residual norm at the extrapolated point is
    compared with the previous check; the solve stops once it fell by no more
    than 0.3 % relative, and after `iterations` iterations at most.
    """
    targets = np.ascontiguousarray(targets)
    s = np.maximum(fb.adjoint @ targets, 0.0)
    momentum = s.copy()
    t_prev = 1.0
    checked = None
    for it in range(iterations):
        residual = fb.matrix @ momentum
        residual -= targets
        if it % 10 == 0:
            norm = np.linalg.norm(residual)
            if checked is not None and checked - norm <= 3e-3 * checked:
                break
            checked = norm
        # s_next = max(momentum - step * grad, 0), in place in the grad buffer
        s_next = fb.adjoint @ residual
        s_next *= fb.step
        np.subtract(momentum, s_next, out=s_next)
        np.maximum(s_next, 0.0, out=s_next)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev ** 2))
        # momentum = s_next + ((t_prev - 1) / t_next) * (s_next - s)
        np.subtract(s_next, s, out=s)
        s *= (t_prev - 1.0) / t_next
        np.add(s_next, s, out=momentum)
        s, t_prev = s_next, t_next
    return s


def mel_to_waveform(mel: MelSpectrogram, iterations: int = 32) -> np.ndarray:
    """Invert a log-mel matrix to a waveform of length N * hop.

    The filterbank is pseudo-inverted with non-negative least squares, then
    Griffin-Lim runs for the requested iteration count (0 means zero phase).
    Each Griffin-Lim step keeps the phase of the re-analysed spectrum X by
    rescaling it, X * magnitude / |X|, and uses phase 0 where |X| = 0.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    cfg = mel.config
    linear = np.exp(mel.data)  # [N, D]
    magnitude = np.ascontiguousarray(_nnls(_filterbank(cfg), linear.T).T)  # [N, bins]
    length = mel.n_frames * cfg.hop
    synthesis = _synthesis_window(cfg, mel.n_frames)

    x = _istft(magnitude, cfg, length, synthesis)
    for _ in range(iterations):
        rebuilt = stft(x, cfg)  # length = N * hop gives exactly N frames
        scale = np.abs(rebuilt)
        silent = scale == 0.0
        scale[silent] = 1.0
        np.divide(magnitude, scale, out=scale)
        rebuilt *= scale
        rebuilt[silent] = magnitude[silent]
        x = _istft(rebuilt, cfg, length, synthesis)
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("non-finite samples from mel inversion")
    return x
