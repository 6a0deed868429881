import numpy as np
import pytest

from melcodec import dsp
from melcodec.dsp import MelConfig, MelSpectrogram

from conftest import synth_clip


CFG = MelConfig()


def naive_stft(x, cfg):
    """Direct evaluation of the windowed DFT sum, independent of np.fft."""
    n_frames = int(np.ceil(len(x) / cfg.hop))
    pad = cfg.frame_length // 2
    xpad = np.pad(np.asarray(x, dtype=np.float64), pad, mode="reflect")
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(cfg.frame_length) / cfg.frame_length)
    n_bins = cfg.fft_size // 2 + 1
    k = np.arange(n_bins)[:, None]
    n = np.arange(cfg.frame_length)[None, :]
    dft = np.exp(-2j * np.pi * k * n / cfg.fft_size)  # [bins, frame_length]
    out = np.zeros((n_frames, n_bins), dtype=complex)
    for i in range(n_frames):
        frame = xpad[i * cfg.hop:i * cfg.hop + cfg.frame_length] * window
        out[i] = dft @ frame
    return out


def reference_filterbank(cfg):
    """Second construction of the triangular mel filters, via interpolation."""
    n_bins = cfg.fft_size // 2 + 1
    bin_freqs = np.arange(n_bins) * cfg.sample_rate / cfg.fft_size
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    inv = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    pts = inv(np.linspace(mel(cfg.fmin), mel(cfg.fmax), cfg.n_mels + 2))
    fb = np.zeros((cfg.n_mels, n_bins))
    for d in range(cfg.n_mels):
        fb[d] = np.interp(bin_freqs, [pts[d], pts[d + 1], pts[d + 2]],
                          [0.0, 1.0, 0.0], left=0.0, right=0.0)
    return fb


def reference_istft(spec, cfg, length):
    """Per-frame overlap-add loop: the arithmetic `_istft` must reproduce."""
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(cfg.frame_length) / cfg.frame_length)
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, :cfg.frame_length]
    frames *= window[None, :]
    total = (spec.shape[0] - 1) * cfg.hop + cfg.frame_length
    out = np.zeros(total)
    wsum = np.zeros(total)
    for i in range(spec.shape[0]):
        lo = i * cfg.hop
        out[lo:lo + cfg.frame_length] += frames[i]
        wsum[lo:lo + cfg.frame_length] += window ** 2
    good = wsum > 1e-11
    out[good] /= wsum[good]
    pad = cfg.frame_length // 2
    out = out[pad:pad + length]
    return np.pad(out, (0, length - len(out)))


def reference_fista(fb, targets, iterations=400):
    """Plain dense FISTA for min ||fb S - targets||^2, S >= 0, fixed count."""
    step = 1.0 / np.linalg.norm(fb, 2) ** 2
    s = np.maximum(fb.T @ targets, 0.0)
    momentum = s.copy()
    t_prev = 1.0
    for _ in range(iterations):
        s_next = np.maximum(momentum - step * (fb.T @ (fb @ momentum - targets)), 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev ** 2))
        momentum = s_next + ((t_prev - 1.0) / t_next) * (s_next - s)
        s, t_prev = s_next, t_next
    return s


class CountingProducts:
    """Stands in for a sparse matrix and counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.count = 0

    def __matmul__(self, other):
        self.count += 1
        return self.matrix @ other


class TestWavIO:
    def test_round_trip_zero(self, tmp_path):
        path = tmp_path / "zero.wav"
        dsp.save_wav(path, np.zeros(100), 16000)
        samples, rate = dsp.load_wav(path)
        assert rate == 16000
        np.testing.assert_array_equal(samples, np.zeros(100))

    def test_half_scale_value(self, tmp_path):
        path = tmp_path / "half.wav"
        dsp.save_wav(path, np.array([0.5]), 16000)
        samples, _ = dsp.load_wav(path)
        assert samples[0] == 0.5  # stored as 16384 exactly

    def test_out_of_range_clipped(self, tmp_path):
        path = tmp_path / "clip.wav"
        dsp.save_wav(path, np.array([1.5, -1.5]), 16000)
        samples, _ = dsp.load_wav(path)
        assert samples[0] == pytest.approx(32767 / 32768)
        assert samples[1] == -1.0

    def test_round_trip_resolution(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 500)
        path = tmp_path / "rt.wav"
        dsp.save_wav(path, x, 16000)
        samples, _ = dsp.load_wav(path)
        assert np.max(np.abs(samples - x)) <= 1.0 / 32768

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "trunc.wav"
        dsp.save_wav(path, np.zeros(100), 16000)
        blob = path.read_bytes()
        path.write_bytes(blob[:-50])
        with pytest.raises(ValueError):
            dsp.load_wav(path)

    def test_odd_length_data_chunk(self, tmp_path):
        path = tmp_path / "odd.wav"
        dsp.save_wav(path, np.zeros(100), 16000)
        blob = bytearray(path.read_bytes())
        blob[40:44] = (199).to_bytes(4, "little")  # data size, one byte short
        path.write_bytes(bytes(blob[:-1]))
        with pytest.raises(ValueError, match="not a whole number of 16-bit"):
            dsp.load_wav(path)

    def test_short_fmt_chunk(self, tmp_path):
        path = tmp_path / "short_fmt.wav"
        path.write_bytes(b"RIFF" + (20).to_bytes(4, "little") + b"WAVE"
                         + b"fmt " + (16).to_bytes(4, "little") + b"\x01\x00\x01\x00")
        with pytest.raises(ValueError, match="fmt chunk holds 4 bytes"):
            dsp.load_wav(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"NOTAWAVEFILE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            dsp.load_wav(path)

    def test_stereo_rejected(self, tmp_path):
        import struct as st
        path = tmp_path / "stereo.wav"
        payload = b"\x00" * 8
        with open(path, "wb") as f:
            f.write(b"RIFF" + st.pack("<I", 36 + len(payload)) + b"WAVE")
            f.write(b"fmt " + st.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16))
            f.write(b"data" + st.pack("<I", len(payload)) + payload)
        with pytest.raises(ValueError):
            dsp.load_wav(path)


class TestStft:
    def test_zero_signal(self):
        spec = dsp.stft(np.zeros(1600), CFG)
        assert spec.shape == (10, 513)
        np.testing.assert_array_equal(np.abs(spec), 0.0)

    def test_frame_count(self):
        assert dsp.stft(np.zeros(1600), CFG).shape[0] == 10
        assert dsp.stft(np.zeros(1601), CFG).shape[0] == 11
        assert dsp.stft(np.zeros(159), CFG).shape[0] == 1

    def test_tone_peak_and_oracle(self):
        n = np.arange(16000)
        x = np.cos(2 * np.pi * 1000.0 * n / 16000.0)
        spec = dsp.stft(x, CFG)
        mag = np.abs(spec)
        expected_bin = round(1000.0 * CFG.fft_size / CFG.sample_rate)
        assert np.argmax(mag[50]) == expected_bin
        short = x[:1200]
        ours = dsp.stft(short, CFG)
        oracle = naive_stft(short, CFG)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(ours - oracle)) / scale < 1e-6

    def test_oracle_on_random_signals(self):
        rng = np.random.default_rng(1)
        for _ in range(6):
            x = rng.normal(size=rng.integers(64, 4097))
            ours = dsp.stft(x, CFG)
            oracle = naive_stft(x, CFG)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(ours - oracle)) / scale < 1e-6

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            dsp.stft(np.array([]), CFG)

    @pytest.mark.parametrize("hop", [160, 150])
    def test_frames_are_the_padded_slices(self, hop):
        cfg = MelConfig(hop=hop)
        x = np.random.default_rng(2).normal(size=3001)
        xpad = np.pad(x, cfg.frame_length // 2, mode="reflect")
        frames = dsp._frame_signal(x, cfg)
        assert frames.shape == (int(np.ceil(3001 / hop)), cfg.frame_length)
        for i, frame in enumerate(frames):
            np.testing.assert_array_equal(frame, xpad[i * hop:i * hop + cfg.frame_length])


class TestFilterbank:
    def test_support_within_band(self):
        cfg = MelConfig(fmin=100.0, fmax=6000.0)
        fb = dsp.mel_filterbank(cfg)
        bin_freqs = np.arange(513) * cfg.sample_rate / cfg.fft_size
        active = fb.sum(axis=0) > 0
        assert bin_freqs[active].min() >= cfg.fmin
        assert bin_freqs[active].max() <= cfg.fmax

    def test_peaks_monotone(self):
        fb = dsp.mel_filterbank(CFG)
        peaks = fb.argmax(axis=1)
        assert np.all(np.diff(peaks) > 0)

    def test_matches_reference_construction(self):
        fb = dsp.mel_filterbank(CFG)
        ref = reference_filterbank(CFG)
        assert np.max(np.abs(fb - ref)) < 1e-10

    def test_rows_nonnegative_unimodal(self):
        fb = dsp.mel_filterbank(CFG)
        assert np.all(fb >= 0)
        for row in fb:
            peak = row.argmax()
            assert np.all(np.diff(row[:peak + 1]) >= 0)
            assert np.all(np.diff(row[peak:]) <= 0)

    def test_too_many_mels_rejected(self):
        with pytest.raises(ValueError):
            dsp.mel_filterbank(MelConfig(fft_size=1024, frame_length=640, n_mels=500))

    def test_cached_per_config_and_read_only(self):
        fb = dsp.mel_filterbank(MelConfig())
        assert dsp.mel_filterbank(MelConfig()) is fb
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0
        other = dsp.mel_filterbank(MelConfig(n_mels=64))
        assert other is not fb
        assert other.shape == (64, 513)


class TestInversion:
    @pytest.mark.parametrize("hop", [160, 150, 400])
    def test_istft_matches_frame_loop_bitwise(self, hop):
        # 150 does not divide the 640-sample frame; at 400 the last hop of
        # output lies past the final frame
        cfg = MelConfig(hop=hop)
        x = np.random.default_rng(hop).normal(size=2345)
        spec = dsp.stft(x, cfg)
        synthesis = dsp._synthesis_window(cfg, spec.shape[0])
        for length in (len(x), spec.shape[0] * hop):
            np.testing.assert_array_equal(dsp._istft(spec, cfg, length, synthesis),
                                          reference_istft(spec, cfg, length))

    def test_nnls_stops_early_near_full_solve(self):
        # a speech-like mel with the kind of residual noise a refined mel
        # carries, so no exact non-negative fit exists
        rng = np.random.default_rng(7)
        mel = dsp.mel_spectrogram(synth_clip(rng, 3.0), CFG).data
        targets = np.exp(mel + 0.5 * rng.normal(size=mel.shape)).T
        fb = dsp._filterbank(CFG)
        counted = CountingProducts(fb.matrix)
        ours = dsp._nnls(dsp._Filterbank(fb.dense, counted, fb.adjoint, fb.step),
                         targets)
        assert counted.count < 400
        full = reference_fista(fb.dense, targets)

        def rel_residual(s):
            return np.linalg.norm(fb.dense @ s - targets) / np.linalg.norm(targets)

        assert np.all(ours >= 0)
        assert rel_residual(ours) <= 1.05 * rel_residual(full)


class TestMelSpectrogram:
    def test_zero_signal_floored(self):
        mel = dsp.mel_spectrogram(np.zeros(1600), CFG)
        np.testing.assert_allclose(mel.data, np.log(1e-5))

    def test_one_second_shape(self):
        mel = dsp.mel_spectrogram(np.random.default_rng(2).normal(size=16000) * 0.1, CFG)
        assert mel.data.shape == (100, 80)

    def test_amplitude_scaling_shifts_log(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=4000) * 0.3
        m1 = dsp.mel_spectrogram(x, CFG).data
        m2 = dsp.mel_spectrogram(2.0 * x, CFG).data
        floor = np.log(CFG.log_floor)
        mask = (m1 > floor + 1e-9) & (m2 > floor + 1e-9)
        assert mask.any()
        np.testing.assert_allclose(m2[mask] - m1[mask], np.log(2.0), atol=1e-9)

    def test_invariant_frame_count(self):
        for n in (1, 159, 160, 161, 999, 16000):
            mel = dsp.mel_spectrogram(np.random.default_rng(n).normal(size=n), CFG)
            assert mel.n_frames == int(np.ceil(n / CFG.hop))


class TestMelToWaveform:
    def test_floor_mel_near_silence(self):
        mel = MelSpectrogram(np.full((20, 80), np.log(1e-5)), CFG)
        x = dsp.mel_to_waveform(mel, iterations=8)
        assert len(x) == 20 * CFG.hop
        assert np.max(np.abs(x)) < 1e-2

    def test_tone_round_trip_peak_preserved(self):
        n = np.arange(8000)
        tone = 0.6 * np.sin(2 * np.pi * 1000.0 * n / 16000.0)
        mel_ref = dsp.mel_spectrogram(tone, CFG)
        rebuilt = dsp.mel_to_waveform(mel_ref, iterations=32)
        mel_deg = dsp.mel_spectrogram(rebuilt, CFG)
        mid = mel_ref.n_frames // 2
        assert np.argmax(mel_ref.data[mid]) == np.argmax(mel_deg.data[mid])

    def test_zero_iterations_finite(self):
        rng = np.random.default_rng(4)
        mel = dsp.mel_spectrogram(rng.normal(size=3200) * 0.2, CFG)
        x = dsp.mel_to_waveform(mel, iterations=0)
        assert np.all(np.isfinite(x))
        assert len(x) == mel.n_frames * CFG.hop

    def test_negative_iterations_rejected(self):
        mel = MelSpectrogram(np.zeros((4, 80)), CFG)
        with pytest.raises(ValueError):
            dsp.mel_to_waveform(mel, iterations=-1)


class TestMelConfigValidation:
    def test_bad_band(self):
        with pytest.raises(ValueError):
            MelConfig(fmin=9000.0, fmax=8000.0)

    def test_frame_longer_than_fft(self):
        with pytest.raises(ValueError):
            MelConfig(frame_length=2048, fft_size=1024)

    def test_hop_longer_than_frame(self):
        with pytest.raises(ValueError):
            MelConfig(hop=700, frame_length=640)
