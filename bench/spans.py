"""Layer spans recorded from outside the program.

`Tracer.install` replaces public functions and methods of the melcodec
modules with wrappers that record one span per call: name, start, end,
parent span, operation id and the tracemalloc peak reached inside the
call. Spans stay in memory until `write` dumps them at the end of a run.
`summarize` turns them into per-operation self times, call counts and
peaks. A target that no longer exists is skipped and listed in `missing`,
so a refactor of the program never fails the workload.

`Hooks` is the untraced counterpart: a timestamp-only wrapper of
`AdamW.step` and a wrapper of `mel_to_waveform` that keeps a reference to
the mel it was handed, with no timing and no allocation tracing.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import Counter, defaultdict

# (module, attribute path) of every layer function the traced run wraps;
# the metric prefix is "<module>.<attribute path>".
TARGETS = [
    ("cli", "main"),
    ("dsp", "load_wav"), ("dsp", "save_wav"), ("dsp", "stft"),
    ("dsp", "mel_filterbank"), ("dsp", "mel_spectrogram"),
    ("dsp", "_istft"), ("dsp", "_nnls"), ("dsp", "mel_to_waveform"),
    ("coding", "encode"), ("coding", "decode"),
    ("ocvq", "quantize"), ("ocvq", "online_cluster_step"),
    ("ocvq", "sample_anchors"),
    ("refine", "refine"), ("refine", "VelocityNet.velocity"),
    ("refine", "VelocityNet.__call__"),
    ("refine", "cfm_loss"), ("refine", "self_consistency_loss"),
    ("nn", "ConvNeXtBlock.__call__"), ("nn", "AttentionBlock.__call__"),
    ("nn", "ResNetBlock.__call__"), ("nn", "SnakeFeedForward.__call__"),
    ("tensor", "backward"), ("tensor", "topo_order"), ("tensor", "AdamW.step"),
    ("tensor", "conv1d"), ("tensor", "conv_transpose1d"), ("tensor", "matmul"),
    ("tensor", "softmax"), ("tensor", "group_norm"), ("tensor", "layer_norm"),
    ("tensor", "gelu"), ("tensor", "load_checkpoint"),
    ("tensor", "save_checkpoint"),
    ("bitstream", "write_stream"), ("bitstream", "read_stream"),
]

# Operation names the autodiff tape records; `tensor.tape_nodes.<op>`
# counts graph nodes per backward pass by this name.
TAPE_OPS = ["leaf", "detach", "add", "sub", "mul", "div", "neg", "pow", "exp",
            "log", "sin", "sqrt", "abs", "sigmoid", "sum", "reshape",
            "transpose", "matmul", "conv1d", "conv_transpose1d", "concat",
            "narrow", "index_rows", "layer_norm", "group_norm", "gelu",
            "softmax", "dropout"]


def _resolve(modules: dict, module: str, path: str):
    """(owner, attribute) for "function" or "Class.method", or (None, name)
    when the program no longer defines it."""
    owner = modules[module]
    *classes, attr = path.split(".")
    for name in classes:
        owner = vars(owner).get(name)
        if owner is None:
            return None, attr
    return (owner, attr) if attr in vars(owner) else (None, attr)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Hooks:
    """The untraced run's two hooks: optimizer-step timestamps and the mel
    handed to the vocoder."""

    def __init__(self, modules: dict):
        self.step_times: list[float] = []
        self.vocoder_mels: list = []
        self._patches = Patches()
        adamw = modules["tensor"].AdamW
        step = vars(adamw)["step"]
        dsp = modules["dsp"]
        to_wave = dsp.mel_to_waveform

        @functools.wraps(step)
        def timed_step(opt):
            out = step(opt)
            self.step_times.append(time.perf_counter())
            return out

        @functools.wraps(to_wave)
        def capture(mel, *args, **kwargs):
            self.vocoder_mels.append(mel)
            return to_wave(mel, *args, **kwargs)

        self._patches.replace(adamw, "step", timed_step)
        self._patches.replace(dsp, "mel_to_waveform", capture)

    def restore(self):
        self._patches.restore()


class Tracer:
    """Span recorder for the traced run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []   # (name, start, end, parent, op, peak)
        self.tape: list[tuple] = []    # (op id, Counter of node ops)
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[list] = []   # open spans: [index, peak seen, base]
        self._patches = Patches()

    # -- instrumentation ---------------------------------------------------

    def install(self):
        for module, path in TARGETS:
            owner, attr = _resolve(self.modules, module, path)
            if owner is None:
                self.missing.append(f"{module}.{path}")
                continue
            name = f"{module}.{path.removesuffix('.__call__')}"
            wrapper = self._wrap(name, getattr(owner, attr))
            if (module, path) == ("tensor", "topo_order"):
                wrapper = self._count_tape(wrapper)
            self._patches.replace(owner, attr, wrapper)

    def restore(self):
        self._patches.restore()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock, traced = time.perf_counter, tracemalloc.get_traced_memory
        reset = tracemalloc.reset_peak

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cur, peak = traced()
            parent = stack[-1][0] if stack else -1
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            reset()
            index = len(spans)
            spans.append(None)
            frame = [index, cur, cur]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                _, peak = traced()
                peak = max(frame[1], peak)
                if stack:
                    stack[-1][1] = max(stack[-1][1], peak)
                reset()
                spans[index] = (name, start, end, parent, self.op_id,
                                peak - frame[2])
        return wrapper

    def _count_tape(self, wrapper):
        @functools.wraps(wrapper)
        def counted(root):
            order = wrapper(root)
            self.tape.append((self.op_id, Counter(node.op for node in order)))
            return order
        return counted

    # -- results -------------------------------------------------------------

    def summarize(self, group_of: dict[int, int]) -> dict:
        """Self seconds, inclusive seconds, calls and peak bytes by span
        name, plus tape node counts per backward pass, summed over the
        operations of each group (operation id -> group id); operations
        missing from the mapping are left out."""
        child_time = defaultdict(float)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[int, dict] = defaultdict(
            lambda: defaultdict(lambda: {"self": 0.0, "incl": 0.0,
                                         "calls": 0, "peak": 0}))
        for index, (name, start, end, parent, op, peak) in enumerate(self.spans):
            if op not in group_of:  # an operation that did not complete
                continue
            entry = layers[group_of[op]][name]
            entry["self"] += end - start - child_time[index]
            entry["incl"] += end - start
            entry["calls"] += 1
            entry["peak"] = max(entry["peak"], peak)
        tape: dict[int, list[Counter]] = defaultdict(list)
        for op, counts in self.tape:
            if op in group_of:
                tape[group_of[op]].append(counts)
        return {"layers": layers, "tape": tape}

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, peak in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op,
                                    "peak_bytes": peak}) + "\n")

