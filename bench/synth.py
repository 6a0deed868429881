"""Seeded synthetic speech-like clips for the benchmark workloads.

An utterance is a run of words separated by short pauses. Each word is one
to three syllables; a syllable is an optional fricative onset (shaped
noise) followed by a voiced nucleus: a harmonic source on a declining,
accented pitch contour, weighted by three formant resonances that glide
between vowel targets. Everything is drawn from the generator passed in, so
the same seed gives the same samples, and the clip has exactly the number
of samples asked for.
"""

from __future__ import annotations

import struct

import numpy as np

SAMPLE_RATE = 16000

# (F1, F2, F3) vowel targets in Hz, roughly /a/ /e/ /i/ /o/ /u/ /ae/
_VOWELS = np.array([[730, 1090, 2440], [530, 1840, 2480], [270, 2290, 3010],
                    [570, 840, 2410], [300, 870, 2240], [660, 1720, 2410]],
                   dtype=np.float64)
_BANDWIDTHS = np.array([90.0, 120.0, 170.0])


def _segments(rng: np.random.Generator, n: int, sr: int):
    """Yield (start, length, kind) spans covering [0, n): kind is
    'pause', 'fric' or 'vowel'."""
    pos = int(rng.integers(int(0.02 * sr), int(0.12 * sr)))
    yield 0, pos, "pause"
    while pos < n:
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.5:
                length = int(rng.uniform(0.04, 0.11) * sr)
                yield pos, length, "fric"
                pos += length
            length = int(rng.uniform(0.09, 0.26) * sr)
            yield pos, length, "vowel"
            pos += length
        length = int(rng.uniform(0.03, 0.25) * sr)
        yield pos, length, "pause"
        pos += length


def speech_clip(rng: np.random.Generator, n_samples: int,
                sr: int = SAMPLE_RATE) -> np.ndarray:
    """A speech-like float64 clip of exactly n_samples, peak 0.5."""
    if n_samples < 1:
        raise ValueError("clip needs at least one sample")
    n = n_samples
    t = np.arange(n) / sr
    voiced = np.zeros(n)
    fric = np.zeros(n)
    formants = np.tile(_VOWELS[int(rng.integers(len(_VOWELS)))], (n, 1))
    accent = np.zeros(n)
    for start, length, kind in _segments(rng, n, sr):
        stop = min(start + length, n)
        if stop <= start or kind == "pause":
            continue
        shape = np.sin(np.pi * (np.arange(stop - start) + 0.5) / length) ** 2
        if kind == "fric":
            fric[start:stop] = rng.uniform(0.15, 0.4) * shape
        else:
            voiced[start:stop] = rng.uniform(0.6, 1.0) * shape
            formants[start:stop] = _VOWELS[int(rng.integers(len(_VOWELS)))]
            accent[start:stop] = rng.uniform(-0.08, 0.15) * shape
    # Formant glides and harmonic gains vary slowly: compute them on a 1 ms
    # control grid and hold each value for the 16 samples it covers.
    hold = sr // 1000
    grid = np.arange(0, n, hold)
    kernel = np.hanning(31)  # about 30 ms glide between vowel targets
    kernel /= kernel.sum()
    formants = np.stack([np.convolve(formants[grid, j], kernel, mode="same")
                         for j in range(3)], axis=1)
    formants *= rng.uniform(0.9, 1.15)  # speaker vocal-tract scale

    f0_base = rng.uniform(90.0, 230.0)
    f0 = f0_base * (1.0 - 0.12 * t / max(t[-1], 1e-9)) * (1.0 + accent)
    f0 *= 1.0 + 0.01 * np.sin(2 * np.pi * rng.uniform(4.0, 6.5) * t)
    phase = 2 * np.pi * np.cumsum(f0) / sr
    tilt = rng.uniform(0.8, 1.3)
    harmonics = np.arange(1, int(0.5 * sr / f0.max()) + 1)
    freqs = harmonics[None, :] * f0[grid][:, None]            # [grid, H]
    gain = 0.05 + sum(1.0 / (1.0 + ((freqs - formants[:, j, None])
                                    / _BANDWIDTHS[j]) ** 2) for j in range(3))
    gain = (gain / harmonics ** tilt).T.copy()                # [H, grid]
    source = np.zeros(n)
    rotor = np.exp(1j * phase)
    partial = rotor.copy()  # exp(i h phase), advanced by one rotor per harmonic
    for g in gain:
        source += np.repeat(g, hold)[:n] * partial.imag
        partial *= rotor
    noise = rng.standard_normal(n)
    hiss = np.diff(noise, prepend=0.0)  # first difference tilts noise upward
    x = voiced * source + 3.0 * fric * hiss + 0.002 * noise
    peak = np.max(np.abs(x))
    return 0.5 * x / peak if peak > 0 else x


def write_wav(path, samples: np.ndarray, sr: int = SAMPLE_RATE) -> None:
    """16-bit PCM mono RIFF/WAVE with the codec's [-1, 1] -> int16 scaling."""
    ints = np.clip(np.round(np.clip(samples, -1.0, 1.0) * 32768.0),
                   -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
        f.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sr, 2 * sr, 2, 16))
        f.write(b"data" + struct.pack("<I", len(payload)) + payload)


def read_wav(path) -> tuple[np.ndarray, int]:
    """Samples (int16 / 32768) and rate of a canonical 16-bit mono wav,
    parsed by chunk walking independently of the codec's reader."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: not RIFF/WAVE")
    offset, rate, data = 12, None, None
    while offset + 8 <= len(blob):
        cid = blob[offset:offset + 4]
        (size,) = struct.unpack_from("<I", blob, offset + 4)
        body = blob[offset + 8:offset + 8 + size]
        if cid == b"fmt ":
            fmt, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body)
            if (fmt, channels, bits) != (1, 1, 16):
                raise ValueError(f"{path}: not 16-bit PCM mono")
        elif cid == b"data":
            data = body
        offset += 8 + size + (size & 1)
    if rate is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0, rate


def write_corpus(directory, n_clips: int, seconds: float, seed: int) -> list[str]:
    """n_clips speech-like wavs of the given length, drawn from one seed."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 7])
    paths = []
    for i in range(n_clips):
        path = directory / f"clip{i:02d}.wav"
        write_wav(path, speech_clip(rng, int(seconds * SAMPLE_RATE)))
        paths.append(str(path))
    return paths
