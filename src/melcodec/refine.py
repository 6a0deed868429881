"""Conditional-flow-matching refinement of coarse decoded mel-spectrograms.

A velocity-field UNet is trained on the straight interpolation path
M_t = (1-t) M0 + t M toward the constant target M - M0, conditioned on the
coarse mel. A second training phase adds a self-consistency penalty that
pulls velocity predictions at neighboring times on the same flow together,
which is what makes 4-step Euler sampling viable at inference.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import coding as coding_mod
from . import dsp, nn
from . import tensor as T
from .dsp import MelConfig, MelSpectrogram
from .tensor import Tensor


@dataclass
class RefineConfig:
    iterations: int = 4          # I, Euler steps at inference
    lambda_cfm: float = 45.0
    lambda_self_cons: float = 10.0
    epsilon: float = 0.01
    sigma: float = 0.3
    dt_min: float = 0.005
    dt_max: float = 0.02
    phase1_steps: int = 2000
    phase2_steps: int = 300
    hidden: int = 256
    n_updown: int = 2            # downsampling/upsampling submodules
    n_bridge: int = 2
    heads: int = 2
    head_dim: int = 64
    dropout: float = 0.05
    time_dim: int = 256
    lr: float = 2e-4
    beta1: float = 0.8
    beta2: float = 0.99
    weight_decay: float = 0.01
    lr_decay: float = 0.999
    batch_size: int = 48
    segment_seconds: float = 1.0

    def __post_init__(self):
        if not (0 <= self.dt_min < self.dt_max < 1):
            raise ValueError("require 0 <= dt_min < dt_max < 1")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


# ---------------------------------------------------------------------------
# flow primitives
# ---------------------------------------------------------------------------

def euler_solve(m0: np.ndarray, cond: np.ndarray, field, iterations: int) -> np.ndarray:
    """Integrate dM/dt = field(M, t, cond) from t=0 to 1 with I Euler steps.

    field is any callable (M [N, D], t float, cond) -> [N, D]; the trained
    VelocityNet exposes a matching `velocity` method.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    m = np.array(m0, dtype=np.float64, copy=True)
    dt = 1.0 / iterations
    for i in range(iterations):
        v = np.asarray(field(m, i * dt, cond), dtype=np.float64)
        m = m + dt * v
        if not np.all(np.isfinite(m)):
            raise FloatingPointError(f"non-finite ODE state at step {i + 1}")
    return m


# ---------------------------------------------------------------------------
# velocity-field network
# ---------------------------------------------------------------------------

class DownSubmodule(nn.Module):
    def __init__(self, channels, cfg: RefineConfig, rng):
        self.res = nn.ResNetBlock(channels, channels, cfg.time_dim, rng)
        self.attn = nn.AttentionBlock(channels, cfg.time_dim, rng,
                                      heads=cfg.heads, head_dim=cfg.head_dim,
                                      dropout=cfg.dropout)
        self.down = nn.Conv1d(channels, channels, 3, rng, stride=2, padding=1)

    def __call__(self, x, t_emb, rng=None):
        h = self.res(x, t_emb)
        skip = self.attn(h, t_emb, rng=rng)
        return self.down(skip), skip


class UpSubmodule(nn.Module):
    def __init__(self, channels, cfg: RefineConfig, rng):
        self.up = nn.ConvTranspose1d(channels, channels, 4, rng,
                                     stride=2, padding=1)
        self.attn = nn.AttentionBlock(2 * channels, cfg.time_dim, rng,
                                      heads=cfg.heads, head_dim=cfg.head_dim,
                                      dropout=cfg.dropout)
        self.res = nn.ResNetBlock(2 * channels, channels, cfg.time_dim, rng)

    def __call__(self, x, skip, t_emb, rng=None):
        h = self.up(x)
        h = T.concat([h, skip], axis=1)
        h = self.attn(h, t_emb, rng=rng)
        return self.res(h, t_emb)


class BridgeBlock(nn.Module):
    def __init__(self, channels, cfg: RefineConfig, rng):
        self.res = nn.ResNetBlock(channels, channels, cfg.time_dim, rng)
        self.attn = nn.AttentionBlock(channels, cfg.time_dim, rng,
                                      heads=cfg.heads, head_dim=cfg.head_dim,
                                      dropout=cfg.dropout)

    def __call__(self, x, t_emb, rng=None):
        return self.attn(self.res(x, t_emb), t_emb, rng=rng)


class VelocityNet(nn.Module):
    """TransformerUNet over [B, D, N]: input projection of concat(M_t, cond),
    strided down path with cached skips, bridge blocks, transposed-conv up
    path with skip concatenation, and a two-conv output head."""

    def __init__(self, n_mels: int, cfg: RefineConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.n_mels = n_mels
        self.eval_count = 0  # forward invocations, for solver cost accounting
        self.proj_in = nn.Conv1d(2 * n_mels, cfg.hidden, 1, rng)
        self.time_embed = nn.TimeEmbedding(cfg.time_dim, rng)
        self.downs = [DownSubmodule(cfg.hidden, cfg, rng)
                      for _ in range(cfg.n_updown)]
        self.bridge = [BridgeBlock(cfg.hidden, cfg, rng)
                       for _ in range(cfg.n_bridge)]
        self.ups = [UpSubmodule(cfg.hidden, cfg, rng)
                    for _ in range(cfg.n_updown)]
        self.head1 = nn.Conv1d(cfg.hidden, cfg.hidden, 3, rng, padding=1)
        self.head2 = nn.Conv1d(cfg.hidden, n_mels, 1, rng)
        # zero-initialized output: the field starts at v = 0
        self.head2.weight.data[:] = 0.0

    def __call__(self, m_t: Tensor, t: np.ndarray, cond: Tensor,
                 rng: np.random.Generator | None = None) -> Tensor:
        """m_t, cond: [B, D, L] with L a multiple of 2^n_updown; t: [B]."""
        self.eval_count += 1
        t_emb = self.time_embed(np.asarray(t, dtype=np.float64))
        h = self.proj_in(T.concat([m_t, cond], axis=1))
        skips = []
        for down in self.downs:
            h, skip = down(h, t_emb, rng=rng)
            skips.append(skip)
        for block in self.bridge:
            h = block(h, t_emb, rng=rng)
        for up in self.ups:
            h = up(h, skips.pop(), t_emb, rng=rng)
        return self.head2(T.silu(self.head1(h)))

    # -- inference adapter ---------------------------------------------------

    def velocity(self, m: np.ndarray, t: float, cond: np.ndarray) -> np.ndarray:
        """v(M_t, t, cond) for one utterance [N, D]; deterministic, as it
        runs in eval mode."""
        m = np.asarray(m, dtype=np.float64)
        cond = np.asarray(cond, dtype=np.float64)
        if cond.shape != m.shape:
            raise ValueError(f"condition shape {cond.shape} != state {m.shape}")
        factor = 2 ** self.cfg.n_updown
        m_in = coding_mod.pad_edge(m.T[None], factor, axis=-1)
        c_in = coding_mod.pad_edge(cond.T[None], factor, axis=-1)
        was_training = self.training
        self.eval()
        with T.no_grad():
            v = self(Tensor(m_in), np.array([t]), Tensor(c_in))
        if was_training:
            self.train()
        return v.data[0].T[:m.shape[0]].copy()


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def cfm_loss(net: VelocityNet, m0: Tensor, m: Tensor, cond: Tensor,
             t: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
    """mean ||v(M_t, t, cond) - (M - M0)||^2 on a [B, D, L] batch."""
    t = np.asarray(t, dtype=np.float64)
    tb = Tensor(t.reshape(-1, 1, 1))
    m_t = (1.0 - tb) * m0 + tb * m
    target = (m - m0).detach()
    v = net(m_t, t, cond, rng=rng)
    return T.reduce_loss("mse", v, target)


def sample_consistency_times(rng: np.random.Generator, cfg: RefineConfig,
                             size: int) -> tuple[np.ndarray, np.ndarray]:
    """t from a folded N(0, sigma^2) truncated to [0, 1 - epsilon] by
    rejection, dt uniform on [dt_min, dt_max]."""
    t = np.empty(size)
    pending = size
    offset = 0
    while pending:
        draws = np.abs(rng.normal(0.0, cfg.sigma, size=pending))
        kept = draws[draws <= 1.0 - cfg.epsilon]
        t[offset:offset + len(kept)] = kept
        offset += len(kept)
        pending -= len(kept)
    dt = rng.uniform(cfg.dt_min, cfg.dt_max, size=size)
    return t, dt


def self_consistency_loss(net: VelocityNet, m0: Tensor, m: Tensor, cond: Tensor,
                          rng: np.random.Generator, cfg: RefineConfig,
                          dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Velocity agreement across one Euler rollout on the same flow.

    Per sample: t ~ truncated N(0, sigma^2), dt ~ U(dt_min, dt_max); the state
    is rolled out with the current prediction held constant, and the
    later-time prediction is a gradient-stopped target. Samples whose t + dt
    reaches 1 - epsilon contribute zero.
    """
    b = m0.shape[0]
    t, dt = sample_consistency_times(rng, cfg, b)
    active = (t + dt) < (1.0 - cfg.epsilon)
    tb = Tensor(t.reshape(-1, 1, 1))
    m_t = (1.0 - tb) * m0 + tb * m
    v1 = net(m_t, t, cond, rng=dropout_rng)
    if not active.any():
        return (v1 * 0.0).sum()
    m_next = m_t.data + dt.reshape(-1, 1, 1) * v1.data  # no grad through rollout
    # the stopped branch is a fixed target: evaluate it deterministically
    toggles = hasattr(net, "eval") and getattr(net, "training", False)
    if toggles:
        net.eval()
    with T.no_grad():
        v2 = net(Tensor(m_next), t + dt, cond).detach()
    if toggles:
        net.train()
    diff = v1 - v2
    mask = Tensor(active.astype(np.float64).reshape(-1, 1, 1))
    return (diff * diff * mask).mean()


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def refine(cond, net: VelocityNet, cfg: RefineConfig,
           rng: np.random.Generator) -> np.ndarray:
    """Sample M0 ~ N(0, I) and integrate the learned field for I steps."""
    cond = np.asarray(cond.data if isinstance(cond, MelSpectrogram) else cond,
                      dtype=np.float64)
    m0 = rng.standard_normal(cond.shape)
    return euler_solve(m0, cond, net.velocity, cfg.iterations)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _precompute_pairs(clips, coding_model, mel_cfg: MelConfig) -> list:
    """Run every corpus clip through the frozen coding stage once, pairing
    each natural mel with its coded coarse version."""
    pairs = []
    for clip in clips:
        mel = dsp.mel_spectrogram(clip, mel_cfg)
        tokens, pad = coding_mod.tokenize(mel, coding_model)
        pairs.append((mel.data, coding_mod.detokenize(tokens, pad, coding_model).data))
    return pairs


def _coarse_mel_batch(pairs, mel_cfg: MelConfig, cfg: RefineConfig,
                      rng) -> tuple[np.ndarray, np.ndarray]:
    """Sample aligned 1-s frame windows from the precomputed (M, M~) pairs.

    Returns (M, M~) as [B, D, L] with L padded for the UNet stride.
    """
    frames = int(round(cfg.segment_seconds * mel_cfg.sample_rate / mel_cfg.hop))
    nat, coarse = [], []
    for _ in range(cfg.batch_size):
        m, m_tilde = pairs[int(rng.integers(len(pairs)))]
        if m.shape[0] < frames:
            reps = int(np.ceil(frames / m.shape[0]))
            m = np.tile(m, (reps, 1))
            m_tilde = np.tile(m_tilde, (reps, 1))
        offset = int(rng.integers(m.shape[0] - frames + 1))
        nat.append(m[offset:offset + frames])
        coarse.append(m_tilde[offset:offset + frames])
    factor = 2 ** cfg.n_updown
    x = coding_mod.pad_edge(np.stack(nat).swapaxes(1, 2), factor, axis=-1)  # [B, D, L]
    m_t = coding_mod.pad_edge(np.stack(coarse).swapaxes(1, 2), factor, axis=-1)
    return x, m_t


def train_refine(corpus, coding_model, cfg, checkpoint_out,
                 phase1_checkpoint_out=None, log_csv=None) -> VelocityNet:
    """Two-phase velocity-field training on top of a frozen coding stage.

    Phase 1 minimizes the flow-matching loss alone; phase 2 adds the
    self-consistency term. When lambda_self_cons is zero the extra sampling
    is skipped entirely, so such a phase 2 run is bit-identical to simply
    extending phase 1. The output checkpoint bundles the frozen coding
    parameters so decode works from a single file.
    """
    mel_cfg, rcfg, seed = cfg.mel, cfg.refine, cfg.seed
    coding_model.eval()
    rng = np.random.default_rng(seed)
    net = VelocityNet(mel_cfg.n_mels, rcfg, rng)
    net.train()
    opt = T.AdamW(net.named_parameters(), lr=rcfg.lr,
                  betas=(rcfg.beta1, rcfg.beta2), weight_decay=rcfg.weight_decay)
    clips = coding_mod.load_corpus(corpus, mel_cfg.sample_rate)
    total_seconds = sum(len(c) for c in clips) / mel_cfg.sample_rate
    steps_per_epoch = max(1, round(total_seconds
                                   / (rcfg.batch_size * rcfg.segment_seconds)))
    pairs = _precompute_pairs(clips, coding_model, mel_cfg)

    rows = []
    total_steps = rcfg.phase1_steps + rcfg.phase2_steps
    for step in range(total_steps):
        phase2 = step >= rcfg.phase1_steps
        m, m_tilde = _coarse_mel_batch(pairs, mel_cfg, rcfg, rng)
        b = m.shape[0]
        t = rng.uniform(0.0, 1.0, size=b)
        m0_t = Tensor(rng.standard_normal(m.shape))
        m_t, cond = Tensor(m), Tensor(m_tilde)
        l_cfm = cfm_loss(net, m0_t, m_t, cond, t, rng=rng)
        total = rcfg.lambda_cfm * l_cfm
        l_sc_val = 0.0
        if phase2 and rcfg.lambda_self_cons != 0.0:
            l_sc = self_consistency_loss(net, m0_t, m_t, cond, rng, rcfg,
                                         dropout_rng=rng)
            total = total + rcfg.lambda_self_cons * l_sc
            l_sc_val = l_sc.item()
        loss_val = total.item()
        if not np.isfinite(loss_val):
            raise RuntimeError(f"non-finite refine loss {loss_val} at step {step}")
        opt.zero_grad()
        T.backward(total)
        opt.step()
        rows.append((step, "2" if phase2 else "1", l_cfm.item(), l_sc_val))
        if (step + 1) % steps_per_epoch == 0:
            opt.lr *= rcfg.lr_decay
        if phase1_checkpoint_out is not None and step + 1 == rcfg.phase1_steps:
            net.eval()
            _save_bundle(phase1_checkpoint_out, coding_model, net)
            net.train()

    net.eval()
    _save_bundle(checkpoint_out, coding_model, net)
    log_path = log_csv if log_csv is not None else str(checkpoint_out) + ".loss.csv"
    with open(log_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "phase", "cfm", "self_cons"])
        writer.writerows(rows)
    return net


def _save_bundle(path, coding_model, net: VelocityNet) -> None:
    state = coding_model.state_dict(prefix="coding/")
    state.update(net.state_dict(prefix="refine/"))
    T.save_checkpoint(path, state)
