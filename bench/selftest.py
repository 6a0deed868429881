"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

1. BENCHMARK.json lists exactly the workloads and metrics run.py reports.
2. Every workload runs at toy sizes, in this process and traced, with every
   output check passing, no failed operation, and every metric reported.
3. Each output check is shown to catch a fault planted in the program by
   replacing one of its functions: for example a quantizer that returns
   the second-nearest codeword, or a decoded wav one hop short.

Prints one PASS or FAIL line per item and exits 1 if any item failed.
"""

from __future__ import annotations

import common  # before numpy: pins the BLAS and the melcodec source

import contextlib
import dataclasses
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import prepare
import run
import synth
import workloads
from common import bitstream, coding, dsp, ocvq, refine, tensor
from spans import Hooks, Patches, Tracer

TOY_SETUP = {"coding": {"steps": 2, "batch_size": 1},
             "refine": {"phase1_steps": 2, "phase2_steps": 2, "batch_size": 1}}
TOY_TRAIN = {"coding": {"steps": 30},
             "refine": {"phase1_steps": 6, "phase2_steps": 6, "batch_size": 2}}
SEED = 5

failures: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    if not ok:
        failures.append(name)


def toy(w: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(
        w, corpus=(2, 1.0), setup=TOY_SETUP,
        lengths=(0.5,) if w.kind == "codec" else (), encode_lengths=(),
        train={} if w.kind == "codec" else TOY_TRAIN, probes=min(w.probes, 2),
        step_probe=TOY_SETUP if w.step_probe else None)


def in_process_setup(w, seed):
    def setup(target: Path):
        prepare.prepare(w, seed, target)
        return json.loads((target / "prepare.json").read_text())
    return setup


# ---------------------------------------------------------------------------
# 1 and 2
# ---------------------------------------------------------------------------

def check_benchmark_json() -> None:
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    report("BENCHMARK.json workloads",
           [x["name"] for x in doc["workloads"]] == list(workloads.WORKLOADS))
    report("BENCHMARK.json end-to-end metrics",
           {x["name"]: x["unit"] for x in doc["end_to_end"]} == run.END_TO_END)
    report("BENCHMARK.json per-layer metrics",
           {x["name"]: x["unit"] for x in doc["per_layer"]} == run.per_layer_units())


def toy_runs(workdir: Path) -> None:
    for w in workloads.WORKLOADS.values():
        t = toy(w)
        start = time.perf_counter()
        # a paper-16k set-up takes seconds even at toy sizes: make one
        n_setups = 1 if w.preset == "paper-16k" else 2
        try:
            result = run.measure(t, SEED, 0.0, True, workdir / w.name,
                                 in_process_setup(t, SEED), n_setups)
        except run.RunFailed as exc:
            report(f"toy {w.name}", False, str(exc))
            continue
        e2e, layers = result["metrics"]
        ok = (result["correct"] and result["failed"] == 0
              and list(e2e) == list(run.END_TO_END)
              and list(layers) == list(run.per_layer_units())
              and all(m["value"] > 0 for m in e2e.values()))
        detail = [f"{time.perf_counter() - start:.1f} s"] + result["problems"]
        report(f"toy {w.name}", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 3: planted faults
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def planted(owner, attr: str, make):
    """Replace owner.attr by make(original) for the duration."""
    patches = Patches()
    patches.replace(owner, attr, make(vars(owner)[attr]))
    try:
        yield
    finally:
        patches.restore()


def expect(name: str, exc_type, action) -> None:
    try:
        action()
    except exc_type as exc:
        report(f"fault caught: {name}", True, str(exc).splitlines()[0][:90])
        return
    report(f"fault caught: {name}", False, "no check failed")


def second_nearest(original):
    def quantize(z, cb):
        z = z.data if isinstance(z, tensor.Tensor) else np.asarray(z)
        w = cb.weight.data
        dist = ((z[:, None, :] - w[None, :, :]) ** 2).sum(axis=2)
        tokens = np.argsort(dist, axis=1, kind="stable")[:, 1]
        return ocvq.TokenSequence(tokens, cb.size), w[tokens].copy()
    return quantize


def drop_last_token(original):
    def quantize(z, cb):
        seq, rows = original(z, cb)
        return ocvq.TokenSequence(seq.tokens[:-1], seq.codebook_size), rows[:-1]
    return quantize


def codec_faults(workdir: Path) -> None:
    w = toy(workloads.WORKLOADS["codec-desk-short"])
    prepare.prepare(w, SEED, workdir / "model")
    model = workdir / "model" / "model.fmck"
    verifier = workloads.CodecVerifier(model)
    cfg = verifier.cfg
    hooks = Hooks(common.MODULES)
    wav_in = workdir / "in.wav"
    synth.write_wav(wav_in, workloads.clip_for(SEED, 0, 0.5))
    n = len(synth.read_wav(wav_in)[0])

    def op(tag="op"):
        return workloads.codec_op(model, wav_in, workdir, tag, hooks)

    def encode_only():
        code, out, err = common.run_cli(["encode", "--in", wav_in, "--model",
                                         model, "--out", workdir / "e.fmb"])
        header, _ = checks.check_stream(workdir / "e.fmb", cfg, n)
        checks.check_printed_bps(out, header["token_count"],
                                 header["codebook_size"], n, header["sample_rate"])

    try:
        report("unfaulted codec operation passes", bool(verifier.verify(op())))
        with planted(bitstream, "write_stream", lambda f: lambda path, header, tokens: f(
                path, dataclasses.replace(header, sample_rate=8000), tokens)):
            expect("header sample rate differs from the config",
                   checks.CheckFailed, lambda: verifier.verify(op()))
        with planted(ocvq, "quantize", drop_last_token):
            expect("one token short", checks.CheckFailed,
                   lambda: verifier.verify(op()))
        with planted(bitstream, "pack_tokens",
                     lambda f: lambda tokens, k: f(tokens, k) + b"\0"):
            expect("payload one byte long", checks.CheckFailed, encode_only)
        with planted(bitstream, "payload_bits",
                     lambda f: lambda count, k: f(count, k) + 8):
            expect("printed bitrate is not payload bits / duration",
                   checks.CheckFailed, encode_only)
        with planted(ocvq, "quantize", second_nearest):
            expect("quantizer returns the second-nearest codeword",
                   checks.CheckFailed, lambda: verifier.verify(op()))
        hop = cfg.mel.hop
        with planted(dsp, "save_wav", lambda f: lambda path, x, rate: f(
                path, x[:-hop], rate)):
            expect("decoded wav one hop short", checks.CheckFailed,
                   lambda: verifier.verify(op()))
        with planted(dsp, "save_wav", lambda f: lambda path, x, rate: f(
                path, x, rate // 2)):
            expect("decoded wav at another rate than the header's",
                   checks.CheckFailed, lambda: verifier.verify(op()))
        with planted(dsp, "save_wav", lambda f: lambda path, x, rate: f(
                path, np.zeros_like(x), rate)):
            expect("decoded wav is silent", checks.CheckFailed,
                   lambda: verifier.verify(op()))
        with planted(dsp, "_nnls", lambda f: lambda fb, targets, iterations=400: (
                f(fb, targets, iterations)
                * (np.arange(fb.shape[1]) < fb.shape[1] // 4)[:, None])):
            expect("vocoder drops the top three quarters of the spectrum",
                   checks.CheckFailed, lambda: verifier.verify(op()))
        with planted(refine, "refine", lambda f: lambda cond, net, rcfg, rng: f(
                cond, net, rcfg, np.random.default_rng())):
            expect("decoding one stream twice differs", checks.CheckFailed,
                   lambda: checks.check_identical(
                       op("a")["wav"].read_bytes(), op("b")["wav"].read_bytes(),
                       "decoded wavs"))
        with planted(refine, "euler_solve", lambda f: lambda m0, cond, field, i: f(
                m0, cond, field, i + 1)):
            tracer = Tracer(common.MODULES)
            tracer.install()
            try:
                op()
            finally:
                tracer.restore()
            evals = sum(1 for s in tracer.spans if s[0] == "refine.VelocityNet")
            expect("decode makes I+1 velocity evaluations", checks.CheckFailed,
                   lambda: checks.check_velocity_evals(evals, workloads.ITERS))
    finally:
        hooks.restore()


def setup_fault(workdir: Path) -> None:
    w = toy(workloads.WORKLOADS["codec-desk-short"])
    setup = in_process_setup(w, SEED)
    first = setup(workdir / "a")

    def perturb(f):
        def save_checkpoint(path, params):
            params = dict(params)
            name = next(iter(params))
            params[name] = params[name] + 1e-9
            return f(path, params)
        return save_checkpoint

    with planted(tensor, "save_checkpoint", perturb):
        second = setup(workdir / "b")
    expect("set-up processes write different checkpoints", checks.CheckFailed,
           lambda: run.verify_setups([first, second]))


def train_faults(workdir: Path) -> None:
    w = toy(workloads.WORKLOADS["train-desk"])
    corpus = synth.write_corpus(workdir / "corpus", 4, 1.0, SEED)
    cfg_path = workdir / "train.json"
    workloads.write_config(cfg_path, w.preset, w.train, seed=1)
    hooks = Hooks(common.MODULES)

    def train(tag="t"):
        workloads.verify_train(
            workloads.train_op(corpus, cfg_path, workdir, tag, hooks),
            decreasing=True)

    def rewrite_log(edit):
        def make(f):
            def train_coding(corpus, cfg, checkpoint_out, log_csv=None):
                model = f(corpus, cfg, checkpoint_out, log_csv)
                path = Path(log_csv or str(checkpoint_out) + ".loss.csv")
                lines = path.read_text().splitlines()
                path.write_text("\n".join(edit(lines)) + "\n")
                return model
            return train_coding
        return make

    def rewrite_refine_log(f):
        def train_refine(corpus, model, cfg, checkpoint_out, **kwargs):
            net = f(corpus, model, cfg, checkpoint_out, **kwargs)
            path = Path(str(checkpoint_out) + ".loss.csv")
            header, first, *rest = path.read_text().splitlines()
            first = ",".join(first.split(",")[:3] + ["0.5"])
            path.write_text("\n".join([header, first, *rest]) + "\n")
            return net
        return train_refine

    def ascend(f):
        def step(opt):
            for p in opt.params.values():
                if p.grad is not None:
                    p.grad *= -1.0
            return f(opt)
        return step

    def crash(f):
        def train_coding(*args, **kwargs):
            raise RuntimeError("planted training crash")
        return train_coding

    try:
        train()
        report("unfaulted training operation passes", True)
        with planted(coding, "train_coding", crash):
            expect("training exits non-zero", workloads.OpFailed, train)
        with planted(coding, "train_coding", rewrite_log(lambda lines: lines[:-1])):
            expect("loss log one row short", checks.CheckFailed, train)
        with planted(coding, "train_coding", rewrite_log(
                lambda lines: lines[:-1] + [",".join(lines[-1].split(",")[:1]
                                                     + ["nan", "0", "0"])])):
            expect("non-finite loss in the log", checks.CheckFailed, train)
        with planted(refine, "self_consistency_loss",
                     lambda f: lambda *a, **k: f(*a, **k) * 0.0):
            expect("phase 2 without self-consistency", checks.CheckFailed, train)
        with planted(refine, "train_refine", rewrite_refine_log):
            expect("self-consistency logged in phase 1", checks.CheckFailed, train)
        with planted(tensor.AdamW, "step", ascend):
            expect("optimizer ascends (loss does not fall)", checks.CheckFailed,
                   train)
    finally:
        hooks.restore()


def main() -> int:
    start = time.perf_counter()
    common.WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=common.WORK))
    try:
        check_benchmark_json()
        toy_runs(workdir / "toy")
        codec_faults(workdir / "codec")
        setup_fault(workdir / "setup")
        train_faults(workdir / "train")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
