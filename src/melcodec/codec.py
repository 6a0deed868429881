"""The codec pipeline: wav samples -> (stream header, tokens) -> wav samples.

`Codec.load` reads one checkpoint, whose parameters sit under "coding/" and,
for a refine-stage checkpoint, under "refine/", and builds both stages.
`decode` checks the stream header against the model, decodes the coarse mel,
refines it when a velocity net was loaded, and inverts it to a waveform.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import bitstream as bs
from . import coding, dsp, refine
from . import tensor as T
from .config import PipelineConfig
from .dsp import MelSpectrogram


@dataclasses.dataclass
class Codec:
    cfg: PipelineConfig
    model: coding.CodingModel
    net: refine.VelocityNet | None = None

    @classmethod
    def load(cls, path, cfg: PipelineConfig, need_refine: bool = True) -> "Codec":
        """Both stages from one checkpoint; the velocity net only when
        need_refine. Entries outside the two stages are rejected."""
        state = T.load_checkpoint(path)
        stray = [key for key in state if not key.startswith(("coding/", "refine/"))]
        if stray:
            raise ValueError(f"{path}: checkpoint entry '{stray[0]}' belongs "
                             "to no stage")
        model = coding.CodingModel(cfg.mel, cfg.coding, np.random.default_rng(0))
        model.load_state(state, prefix="coding/")
        model.eval()
        net = None
        if need_refine:
            if not any(key.startswith("refine/") for key in state):
                raise ValueError(f"{path}: checkpoint has no refinement stage; "
                                 "train with --stage refine or pass --no-refine")
            net = refine.VelocityNet(cfg.mel.n_mels, cfg.refine,
                                     np.random.default_rng(0))
            net.load_state(state, prefix="refine/")
            net.eval()
        return cls(cfg, model, net)

    def _header(self, token_count: int, pad_frames: int) -> bs.StreamHeader:
        mel, ccfg = self.cfg.mel, self.cfg.coding
        return bs.StreamHeader(sample_rate=mel.sample_rate, hop=mel.hop,
                               downsample=ccfg.downsample,
                               codebook_size=ccfg.codebook_size,
                               n_mels=mel.n_mels, token_count=token_count,
                               pad_frames=pad_frames)

    def encode(self, samples: np.ndarray, rate: int) -> tuple[bs.StreamHeader, np.ndarray]:
        if rate != self.cfg.mel.sample_rate:
            raise ValueError(f"input rate {rate} != configured "
                             f"{self.cfg.mel.sample_rate}")
        mel = dsp.mel_spectrogram(samples, self.cfg.mel)
        tokens, pad = coding.tokenize(mel, self.model)
        return self._header(len(tokens), pad), tokens

    def decode(self, header: bs.StreamHeader, tokens: np.ndarray,
               iterations: int | None = None) -> np.ndarray:
        """Samples at the header's rate; `iterations` overrides the
        configured Euler step count of the refinement."""
        expected = dataclasses.asdict(self._header(header.token_count,
                                                   header.pad_frames))
        wrong = [f"{name} {value} (model {expected[name]})"
                 for name, value in dataclasses.asdict(header).items()
                 if value != expected[name]]
        if header.token_count == 0 or header.pad_frames >= self.cfg.coding.downsample:
            wrong.append(f"{header.token_count} tokens, {header.pad_frames} pad frames")
        if wrong:
            raise ValueError("stream does not match the model: " + ", ".join(wrong))
        mel = coding.detokenize(tokens, header.pad_frames, self.model)
        if self.net is not None:
            rcfg = self.cfg.refine
            if iterations is not None:
                rcfg = dataclasses.replace(rcfg, iterations=iterations)
            refined = refine.refine(mel, self.net, rcfg,
                                    np.random.default_rng(self.cfg.seed))
            mel = MelSpectrogram(refined, self.cfg.mel)
        return dsp.mel_to_waveform(mel, iterations=self.cfg.griffin_lim_iters)
