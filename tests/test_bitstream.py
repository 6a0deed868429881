import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melcodec import bitstream as bs


def make_header(count, k=1024, f_s=16000, hop=160, r=4, d=80, pad=0):
    return bs.StreamHeader(sample_rate=f_s, hop=hop, downsample=r,
                           codebook_size=k, n_mels=d, token_count=count,
                           pad_frames=pad)


class TestPackTokens:
    def test_single_zero_token_k1024(self):
        assert bs.pack_tokens(np.array([0]), 1024) == bytes([0x00, 0x00])

    def test_two_token_layout_k1024(self):
        # 1023 -> 1111111111, 1 -> 0000000001, 4 pad bits on the right:
        # 11111111 11000000 00010000 = FF C0 10
        assert bs.pack_tokens(np.array([1023, 1]), 1024) == bytes([0xFF, 0xC0, 0x10])

    def test_k256_is_identity_bytes(self):
        tokens = np.array([0, 1, 127, 255, 88])
        assert bs.pack_tokens(tokens, 256) == bytes(tokens.tolist())

    def test_empty(self):
        assert bs.pack_tokens(np.array([], dtype=np.int64), 1024) == b""

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bs.pack_tokens(np.array([1024]), 1024)
        with pytest.raises(ValueError):
            bs.pack_tokens(np.array([-1]), 1024)

    def test_payload_bit_count_law(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 17, 256, 1024, 40000):
            count = int(rng.integers(0, 50))
            tokens = rng.integers(0, k, size=count)
            payload = bs.pack_tokens(tokens, k)
            bits = bs.payload_bits(count, k)
            assert len(payload) == int(np.ceil(bits / 8))


class TestUnpackTokens:
    def test_inverse_of_hand_layout(self):
        header = make_header(2)
        seq = bs.unpack_tokens(bytes([0xFF, 0xC0, 0x10]), header)
        assert seq.tokens.tolist() == [1023, 1]

    def test_empty(self):
        seq = bs.unpack_tokens(b"", make_header(0))
        assert len(seq) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bs.unpack_tokens(b"\x00", make_header(2))

    def test_decoded_token_out_of_range(self):
        # K=5 uses 3-bit fields; value 7 is representable but invalid
        header = make_header(1, k=5)
        with pytest.raises(ValueError):
            bs.unpack_tokens(bytes([0b11100000]), header)

    def test_fuzzed_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(2, 65536))
            count = int(rng.integers(0, 40))
            tokens = rng.integers(0, k, size=count)
            header = make_header(count, k=k)
            out = bs.unpack_tokens(bs.pack_tokens(tokens, k), header)
            np.testing.assert_array_equal(out.tokens, tokens)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=65535), st.data())
    def test_property_round_trip(self, k, data):
        tokens = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=k - 1), max_size=64)), dtype=np.int64)
        header = make_header(len(tokens), k=k)
        out = bs.unpack_tokens(bs.pack_tokens(tokens, k), header)
        np.testing.assert_array_equal(out.tokens, tokens)


class TestStreamIO:
    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, 1024, size=250)
        header = make_header(250, pad=3)
        path = tmp_path / "clip.fmb"
        bs.write_stream(path, header, tokens)
        header2, seq = bs.read_stream(path)
        assert header2 == header
        np.testing.assert_array_equal(seq.tokens, tokens)

    def test_ten_seconds_at_paper_defaults(self, tmp_path):
        # 25 tokens/s at 16 kHz defaults: 250 tokens over 10 s, 10 bits each
        tokens = np.zeros(250, dtype=np.int64)
        header = make_header(250)
        path = tmp_path / "ten.fmb"
        bs.write_stream(path, header, tokens)
        bits = bs.payload_bits(250, 1024)
        assert bits == 2500
        assert bits / 10.0 == 250.0  # payload bps over the 10 s clip
        payload_len = path.stat().st_size - 20  # header is 20 bytes
        assert payload_len == int(np.ceil(2500 / 8))

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "bad.fmb"
        bs.write_stream(path, make_header(4), np.array([1, 2, 3, 4]))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            bs.read_stream(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.fmb"
        bs.write_stream(path, make_header(8), np.arange(8))
        blob = path.read_bytes()
        path.write_bytes(blob[:-2])
        with pytest.raises(ValueError):
            bs.read_stream(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "ver.fmb"
        bs.write_stream(path, make_header(1), np.array([0]))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            bs.read_stream(path)

    @pytest.mark.parametrize("field, value", [
        ("codebook_size", 65536), ("hop", 65536), ("downsample", 256),
        ("n_mels", 256), ("pad_frames", 256), ("sample_rate", 2 ** 32),
        ("token_count", 2 ** 32), ("hop", -1), ("sample_rate", -1)])
    def test_field_out_of_packed_range_rejected(self, field, value):
        fields = dict(sample_rate=16000, hop=160, downsample=4,
                      codebook_size=1024, n_mels=80, token_count=0, pad_frames=0)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            bs.StreamHeader(**fields)

    def test_fields_at_packed_limits_round_trip(self):
        header = bs.StreamHeader(sample_rate=2 ** 32 - 1, hop=65535,
                                 downsample=255, codebook_size=65535,
                                 n_mels=255, token_count=2 ** 32 - 1,
                                 pad_frames=255)
        assert bs.StreamHeader.unpack(header.pack()) == header

    def test_header_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bs.write_stream(tmp_path / "x.fmb", make_header(5), np.array([1, 2]))
