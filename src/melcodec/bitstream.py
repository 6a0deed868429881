"""Bit-exact token container (".fmb").

Header is little-endian: magic "FMB1", version u8, f_s u32, w_s u16, r u8,
K u16, D u8, token_count u32, pad_frames u8. Tokens follow as a packed
payload of ceil(log2 K)-bit fields, MSB first, final partial byte
zero-padded on the right. The header is excluded from bitrate accounting.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .ocvq import TokenSequence

MAGIC = b"FMB1"
VERSION = 1
_HEADER = struct.Struct("<4sBIHBHBIB")
# largest value each header field's packed width holds
_FIELD_MAX = {"sample_rate": 2 ** 32 - 1, "hop": 2 ** 16 - 1,
              "downsample": 2 ** 8 - 1, "codebook_size": 2 ** 16 - 1,
              "n_mels": 2 ** 8 - 1, "token_count": 2 ** 32 - 1,
              "pad_frames": 2 ** 8 - 1}


@dataclass
class StreamHeader:
    sample_rate: int
    hop: int            # w_s, samples
    downsample: int     # r
    codebook_size: int  # K
    n_mels: int         # D
    token_count: int
    pad_frames: int = 0
    version: int = VERSION

    def __post_init__(self):
        if self.codebook_size < 2:
            raise ValueError("codebook size must be >= 2")
        if self.token_count < 0:
            raise ValueError("token count must be >= 0")
        for name, top in _FIELD_MAX.items():
            value = getattr(self, name)
            if not 0 <= value <= top:
                raise ValueError(f"header {name}={value} does not fit its "
                                 f"field (0..{top})")

    def pack(self) -> bytes:
        return _HEADER.pack(MAGIC, self.version, self.sample_rate, self.hop,
                            self.downsample, self.codebook_size, self.n_mels,
                            self.token_count, self.pad_frames)

    @classmethod
    def unpack(cls, blob: bytes) -> "StreamHeader":
        if len(blob) < _HEADER.size:
            raise ValueError("stream truncated inside header")
        magic, version, f_s, w_s, r, k, d, count, pad = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            raise ValueError(f"bad stream magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"unsupported stream version {version}")
        return cls(sample_rate=f_s, hop=w_s, downsample=r, codebook_size=k,
                   n_mels=d, token_count=count, pad_frames=pad, version=version)


def bits_per_token(k: int) -> int:
    return max(1, math.ceil(math.log2(k)))


def pack_tokens(tokens: np.ndarray, k: int) -> bytes:
    """Concatenate each token as a ceil(log2 K)-bit field, MSB first."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= k):
        raise ValueError(f"token out of range for K={k}")
    if tokens.size == 0:
        return b""
    width = bits_per_token(k)
    shifts = np.arange(width - 1, -1, -1)
    bits = ((tokens[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)
    return np.packbits(bits).tobytes()  # packbits zero-pads the final byte


def unpack_tokens(payload: bytes, header: StreamHeader) -> TokenSequence:
    """Exact inverse of pack_tokens, validated against the header."""
    width = bits_per_token(header.codebook_size)
    expected = math.ceil(header.token_count * width / 8)
    if len(payload) != expected:
        raise ValueError(f"payload of {len(payload)} bytes, but "
                         f"{header.token_count} tokens need {expected}")
    if header.token_count == 0:
        tokens = np.zeros(0, dtype=np.int64)
    else:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        bits = bits[:header.token_count * width].reshape(header.token_count, width)
        weights = (1 << np.arange(width - 1, -1, -1)).astype(np.int64)
        tokens = bits.astype(np.int64) @ weights
        if tokens.size and tokens.max() >= header.codebook_size:
            raise ValueError("decoded token exceeds codebook size")
    return TokenSequence(tokens, header.codebook_size)


def write_stream(path, header: StreamHeader, tokens: np.ndarray) -> None:
    tokens = np.asarray(tokens, dtype=np.int64)
    if len(tokens) != header.token_count:
        raise ValueError(f"header says {header.token_count} tokens, "
                         f"got {len(tokens)}")
    payload = pack_tokens(tokens, header.codebook_size)
    with open(path, "wb") as f:
        f.write(header.pack())
        f.write(payload)


def read_stream(path) -> tuple[StreamHeader, TokenSequence]:
    with open(path, "rb") as f:
        blob = f.read()
    header = StreamHeader.unpack(blob)
    return header, unpack_tokens(blob[_HEADER.size:], header)


def payload_bits(token_count: int, k: int) -> int:
    """Exact payload size in bits before byte padding."""
    return token_count * bits_per_token(k)
