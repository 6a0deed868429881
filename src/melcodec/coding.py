"""Mel-spectrogram coding stage: ConvNeXt v2 encoder, single-codebook
quantizer, mirrored decoder, and the reconstruction + VQ training loop.

The encoder maps [N, D] log-mels to [N/r, C] latents through an input conv,
a ConvNeXt stack, a strided downsampling conv, and a dimension-reduction
conv; the decoder mirrors it with a transposed upsampling conv. Training is
purely reconstruction-based: weighted L1+L2 mel loss plus the VQ
regularizer, with the online-clustering refresh applied after each
gradient step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import dsp, nn, ocvq
from . import tensor as T
from .dsp import MelConfig, MelSpectrogram
from .tensor import Tensor


@dataclass
class CodingConfig:
    hidden: int = 256
    n_blocks: int = 8
    downsample: int = 4          # r
    code_dim: int = 32           # C
    codebook_size: int = 1024    # K
    lambda_mel_rec: float = 45.0
    lambda_vq: float = 2.5
    eta: float = 4.0
    lr: float = 2e-4
    beta1: float = 0.8
    beta2: float = 0.99
    weight_decay: float = 0.01
    lr_decay: float = 0.999      # per epoch
    batch_size: int = 16
    segment_seconds: float = 1.0
    steps: int = 1000
    online_clustering: bool = True
    rho: float = 0.999
    delta: float = 1e-3
    bypass_quantizer: bool = False  # test hook: plain autoencoder when True

    def __post_init__(self):
        if self.downsample < 1:
            raise ValueError("downsample factor must be >= 1")
        if self.lambda_mel_rec < 0 or self.lambda_vq < 0:
            raise ValueError("loss weights must be >= 0")


def _upsample_geometry(r: int) -> tuple[int, int]:
    # kernel/padding pair giving an exact r-fold length increase
    kernel = 4 * r if r % 2 == 0 else 3 * r
    return kernel, (kernel - r) // 2


class MelEncoder(nn.Module):
    def __init__(self, n_mels: int, cfg: CodingConfig, rng: np.random.Generator):
        self.conv_in = nn.Conv1d(n_mels, cfg.hidden, 7, rng, padding=3)
        self.blocks = [nn.ConvNeXtBlock(cfg.hidden, rng) for _ in range(cfg.n_blocks)]
        self.down = nn.Conv1d(cfg.hidden, cfg.hidden, 7, rng,
                              stride=cfg.downsample, padding=3)
        self.reduce = nn.Conv1d(cfg.hidden, cfg.code_dim, 7, rng, padding=3)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.conv_in(x)
        for block in self.blocks:
            h = block(h)
        return self.reduce(self.down(h))


class MelDecoder(nn.Module):
    def __init__(self, n_mels: int, cfg: CodingConfig, rng: np.random.Generator):
        kernel, padding = _upsample_geometry(cfg.downsample)  # (16, 6) at r=4
        self.expand = nn.Conv1d(cfg.code_dim, cfg.hidden, 7, rng, padding=3)
        self.up = nn.ConvTranspose1d(cfg.hidden, cfg.hidden, kernel, rng,
                                     stride=cfg.downsample, padding=padding)
        self.blocks = [nn.ConvNeXtBlock(cfg.hidden, rng) for _ in range(cfg.n_blocks)]
        self.conv_out = nn.Conv1d(cfg.hidden, n_mels, 7, rng, padding=3)

    def __call__(self, z: Tensor) -> Tensor:
        h = self.up(self.expand(z))
        for block in self.blocks:
            h = block(h)
        return self.conv_out(h)


class CodingModel(nn.Module):
    def __init__(self, mel_cfg: MelConfig, cfg: CodingConfig,
                 rng: np.random.Generator):
        self.mel_cfg = mel_cfg
        self.cfg = cfg
        self.encoder = MelEncoder(mel_cfg.n_mels, cfg, rng)
        self.decoder = MelDecoder(mel_cfg.n_mels, cfg, rng)
        self.codebook = ocvq.init_codebook(cfg.codebook_size, cfg.code_dim, rng).weight
        self.cluster_state = ocvq.init_cluster_state(cfg.codebook_size,
                                                     rho=cfg.rho, delta=cfg.delta)
        self.final_epoch_utilization: float | None = None

    @property
    def codebook_obj(self) -> ocvq.Codebook:
        return ocvq.Codebook(self.codebook)


def frame_padding(n_frames: int, r: int) -> int:
    """Frames of edge repetition needed to reach a multiple of r."""
    return (-n_frames) % r


def pad_edge(a: np.ndarray, r: int, axis: int = 0) -> np.ndarray:
    """Repeat the last entry along `axis` up to a multiple of r; `a` itself
    when it already is one."""
    pad = frame_padding(a.shape[axis], r)
    if not pad:
        return a
    last = [slice(None)] * a.ndim
    last[axis] = slice(-1, None)
    return np.concatenate([a, np.repeat(a[tuple(last)], pad, axis=axis)], axis=axis)


def encode(mel: MelSpectrogram, model: CodingModel) -> np.ndarray:
    """Latent matrix [N', C] with N' = ceil(N / r); deterministic in eval."""
    if mel.n_frames == 0:
        raise ValueError("empty mel input")
    padded = pad_edge(mel.data, model.cfg.downsample)
    model.eval()
    with T.no_grad():
        z = model.encoder(Tensor(padded.T[None]))  # [1, C, N']
    return z.data[0].T.copy()


def decode(z_hat: np.ndarray, model: CodingModel, pad_frames_count: int = 0) -> MelSpectrogram:
    """Decoded coarse mel [N' * r - pad, D] from quantized latents [N', C]."""
    z_hat = np.asarray(z_hat, dtype=np.float64)
    if z_hat.ndim != 2 or z_hat.shape[1] != model.cfg.code_dim:
        raise ValueError(f"expected [N', {model.cfg.code_dim}] latents, got {z_hat.shape}")
    model.eval()
    with T.no_grad():
        m = model.decoder(Tensor(z_hat.T[None]))  # [1, D, N]
    out = m.data[0].T
    if pad_frames_count:
        out = out[:-pad_frames_count]
    return MelSpectrogram(out.copy(), model.mel_cfg)


def tokenize(mel: MelSpectrogram, model: CodingModel) -> tuple[np.ndarray, int]:
    """Nearest-codeword tokens [ceil(N / r)] of a mel, and the frames of edge
    padding the encoder added."""
    seq, _ = ocvq.quantize(encode(mel, model), model.codebook_obj)
    return seq.tokens, frame_padding(mel.n_frames, model.cfg.downsample)


def detokenize(tokens: np.ndarray, pad: int, model: CodingModel) -> MelSpectrogram:
    """Coarse mel [N, D] decoded from the codewords of `tokens`."""
    return decode(model.codebook.data[tokens], model, pad)


def mel_rec_loss(m, m_tilde) -> Tensor:
    """mean|M - M~| + mean(M - M~)^2."""
    m = m if isinstance(m, Tensor) else Tensor(np.asarray(m, dtype=np.float64))
    m_tilde = m_tilde if isinstance(m_tilde, Tensor) else Tensor(m_tilde)
    return T.reduce_loss("l1", m, m_tilde) + T.reduce_loss("l2", m, m_tilde)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def load_corpus(paths, expected_rate: int) -> list[np.ndarray]:
    if not paths:
        raise ValueError("empty corpus")
    clips = []
    for path in paths:
        samples, rate = dsp.load_wav(path)
        if rate != expected_rate:
            raise ValueError(f"{path}: sample rate {rate} != configured {expected_rate}")
        clips.append(samples)
    return clips


def _sample_crop(clips: list[np.ndarray], length: int,
                 rng: np.random.Generator) -> np.ndarray:
    clip = clips[int(rng.integers(len(clips)))]
    if len(clip) < length:
        clip = np.resize(clip, length)  # tile short clips up to a full segment
    offset = int(rng.integers(len(clip) - length + 1))
    return clip[offset:offset + length]


def _mel_batch(clips, mel_cfg: MelConfig, cfg: CodingConfig,
               rng: np.random.Generator) -> np.ndarray:
    length = int(round(cfg.segment_seconds * mel_cfg.sample_rate))
    mels = [dsp.mel_spectrogram(_sample_crop(clips, length, rng), mel_cfg).data
            for _ in range(cfg.batch_size)]
    return pad_edge(np.stack(mels), cfg.downsample, axis=1)  # [B, N, D]


def coding_step(model: CodingModel, batch: np.ndarray,
                opt: T.AdamW, rng: np.random.Generator) -> dict:
    """One optimization step on a [B, N, D] mel batch; returns loss terms
    and the tokens assigned this step."""
    cfg = model.cfg
    x = Tensor(np.swapaxes(batch, 1, 2))  # [B, D, N]
    b = batch.shape[0]
    z = model.encoder(x)  # [B, C, N']
    n_lat = z.shape[2]
    z_flat = z.transpose(0, 2, 1).reshape(b * n_lat, cfg.code_dim)

    if cfg.bypass_quantizer:
        tokens = np.zeros(b * n_lat, dtype=np.int64)
        l_vq = Tensor(0.0, requires_grad=False)
        z_dec = z_flat
    else:
        seq, _ = ocvq.quantize(z_flat.data, model.codebook_obj)
        tokens = seq.tokens
        z_q = T.index_rows(model.codebook, tokens)
        l_vq = ocvq.vq_loss(z_flat, z_q, cfg.eta)
        z_dec = ocvq.straight_through(z_flat, z_q)

    z_dec = z_dec.reshape(b, n_lat, cfg.code_dim).transpose(0, 2, 1)
    m_tilde = model.decoder(z_dec)
    l_rec = mel_rec_loss(x, m_tilde)
    total = cfg.lambda_mel_rec * l_rec + cfg.lambda_vq * l_vq

    loss_val = total.item()
    if not np.isfinite(loss_val):
        raise RuntimeError(f"non-finite training loss {loss_val} "
                           f"(mel_rec={l_rec.item()}, vq={l_vq.item()})")
    opt.zero_grad()
    T.backward(total)
    opt.step()

    if cfg.online_clustering and not cfg.bypass_quantizer:
        ocvq.online_cluster_step(model.codebook_obj, model.cluster_state,
                                 z_flat.data, rng)
    return {"total": loss_val, "mel_rec": l_rec.item(), "vq": l_vq.item(),
            "tokens": tokens}


def train_coding(corpus, cfg, checkpoint_out, log_csv=None) -> CodingModel:
    """Train the coding stage on a list of wav paths.

    cfg is a PipelineConfig (mel + coding + seed). Writes the checkpoint with
    "coding/"-prefixed parameter names and a per-step loss CSV with columns
    (step, mel_rec, vq, utilization).
    """
    mel_cfg, ccfg, seed = cfg.mel, cfg.coding, cfg.seed
    rng = np.random.default_rng(seed)
    model = CodingModel(mel_cfg, ccfg, rng)
    model.train()
    opt = T.AdamW(model.named_parameters(), lr=ccfg.lr,
                  betas=(ccfg.beta1, ccfg.beta2), weight_decay=ccfg.weight_decay)
    clips = load_corpus(corpus, mel_cfg.sample_rate)
    total_seconds = sum(len(c) for c in clips) / mel_cfg.sample_rate
    steps_per_epoch = max(1, round(total_seconds
                                   / (ccfg.batch_size * ccfg.segment_seconds)))

    usage_history: list[np.ndarray] = []
    rows = []
    for step in range(ccfg.steps):
        batch = _mel_batch(clips, mel_cfg, ccfg, rng)
        out = coding_step(model, batch, opt, rng)
        used = np.zeros(ccfg.codebook_size, dtype=bool)
        used[np.unique(out["tokens"])] = True
        usage_history.append(used)
        window = usage_history[-steps_per_epoch:]
        utilization = float(np.logical_or.reduce(window).mean())
        rows.append((step, out["mel_rec"], out["vq"], utilization))
        if (step + 1) % steps_per_epoch == 0:
            opt.lr *= ccfg.lr_decay

    model.final_epoch_utilization = float(
        np.logical_or.reduce(usage_history[-steps_per_epoch:]).mean())
    model.eval()
    T.save_checkpoint(checkpoint_out, model.state_dict(prefix="coding/"))
    log_path = log_csv if log_csv is not None else str(checkpoint_out) + ".loss.csv"
    with open(log_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "mel_rec", "vq", "utilization"])
        writer.writerows(rows)
    return model


def load_coding_model(checkpoint_path, mel_cfg: MelConfig,
                      cfg: CodingConfig) -> CodingModel:
    """The coding stage of a checkpoint, read by `Codec.load`."""
    from .codec import Codec  # codec and config import this module
    from .config import PipelineConfig
    return Codec.load(checkpoint_path, PipelineConfig(mel=mel_cfg, coding=cfg),
                      need_refine=False).model
