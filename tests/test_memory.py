"""Peak-memory bounds, measured with tracemalloc: attention memory grows
linearly with length, the quantizer's scratch is bounded, and a loaded
codec holds each parameter once."""

import tracemalloc

import numpy as np

from melcodec import coding, ocvq, refine
from melcodec import tensor as T
from melcodec.codec import Codec
from melcodec.tensor import Tensor


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_velocity_peak_grows_linearly(desk_cfg):
    # the composed [heads, L, L] attention arrays take about 4x the memory
    # at twice the length
    net = refine.VelocityNet(desk_cfg.mel.n_mels, desk_cfg.refine,
                             np.random.default_rng(0))
    rng = np.random.default_rng(1)
    peaks = []
    for frames in (800, 1600):
        m, cond = rng.normal(size=(2, frames, desk_cfg.mel.n_mels))
        peaks.append(traced_peak(net.velocity, m, 0.5, cond))
    assert peaks[1] <= 2.5 * peaks[0], peaks


def test_quantize_peak_bounded():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(2500, 32))
    cb = ocvq.Codebook(Tensor(rng.normal(size=(1024, 32)), requires_grad=True))
    assert traced_peak(ocvq.quantize, z, cb) < 32 * 2 ** 20


def test_loaded_codec_holds_parameters_once(desk_cfg, tmp_path):
    rng = np.random.default_rng(3)
    model = coding.CodingModel(desk_cfg.mel, desk_cfg.coding, rng)
    net = refine.VelocityNet(desk_cfg.mel.n_mels, desk_cfg.refine, rng)
    saved = {**model.state_dict("coding/"), **net.state_dict("refine/")}
    path = tmp_path / "full.fmck"
    T.save_checkpoint(path, saved)
    codec = Codec.load(path, desk_cfg)
    loaded = {**codec.model.named_parameters("coding/"),
              **codec.net.named_parameters("refine/")}
    assert loaded.keys() == saved.keys()
    for key, tensor in loaded.items():
        assert tensor._grad is None, key
        assert tensor.data.flags.owndata, key  # not a view of the file buffer
        np.testing.assert_array_equal(tensor.data, saved[key])
