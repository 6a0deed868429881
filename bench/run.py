"""melcodec benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N --seconds S --trace 0|1]   # every workload

One run: three identical set-ups, each in its own process (see
prepare.py), and a closed loop with one caller that repeats whole rounds
of the workload's operations until they have taken S seconds, each
operation starting when the previous one returns. The first set-up runs
before the loop, the others between rounds or after it. Every operation's
outputs are checked. Timing metrics of the loop are in reference seconds:
wall seconds scaled by the run's calibration factor, from a fixed kernel
timed before every operation (see calib.py). The last line of standard
output is one JSON object: correct, attempted, failed and the metrics,
which are the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1. Without --workload, each workload runs in its own process,
one after the other.
"""

from __future__ import annotations

import common  # before numpy: pins the BLAS and the melcodec source

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import calib
import checks
import synth
import workloads
from spans import TAPE_OPS, TARGETS, Hooks, Tracer

SETUPS = 3  # set-ups per run; setup_s is their median

END_TO_END = {
    "setup_s": "s", "encode_rtf": "s/s", "decode_rtf": "s/s",
    "peak_rss_mb": "MiB", "resynth_mel_l1": "ln-mel", "payload_bps": "bit/s",
    "coding_step_s": "s", "refine_step_s": "s", "refine_sc_step_s": "s",
}
_STEPS = ("coding_step_s", "refine_step_s", "refine_sc_step_s")
# Timing metrics the loop measures, by workload kind: these are scaled by
# the run's calibration factor. The others come from set-ups (see end_to_end).
_LOOP_TIMINGS = {"codec": ("encode_rtf", "decode_rtf"), "train": _STEPS}

# per-layer statistics beyond self seconds
_CALLS = ("dsp.stft", "dsp.mel_filterbank")
_PEAKS = ("ocvq.quantize", "refine.refine", "refine.VelocityNet.velocity",
          "dsp.mel_to_waveform")
_INCLUSIVE = ("dsp.mel_spectrogram", "coding.encode", "ocvq.quantize",
              "coding.decode", "refine.refine", "dsp.mel_to_waveform",
              "tensor.backward", "refine.cfm_loss",
              "refine.self_consistency_loss")
_NOT_SELF = ("tensor.topo_order", "refine.VelocityNet", "cli.main",
             "refine.VelocityNet.velocity")


def _span_names() -> list[str]:
    return [f"{m}.{p.removesuffix('.__call__')}" for m, p in TARGETS]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {f"{name}.s": "s" for name in _span_names() if name not in _NOT_SELF}
    units["cli.main.self_s"] = "s"
    units["refine.VelocityNet.velocity.s"] = "s"
    units["refine.velocity_evals"] = "count"
    units.update({f"{name}.calls": "count" for name in _CALLS})
    units.update({f"{name}.incl_s": "s" for name in _INCLUSIVE})
    units.update({f"{name}.peak_mb": "MiB" for name in _PEAKS})
    units.update({f"tensor.tape_nodes.{op}": "count" for op in TAPE_OPS})
    units["tensor.tape_nodes.total"] = "count"
    units.update({"trace.untraced_round_s": "s", "trace.traced_round_s": "s",
                  "trace.overhead_pct": "%"})
    return units


class RunFailed(RuntimeError):
    """The run could not produce its metrics."""


def _median(values) -> float:
    values = list(values)
    if not values:
        raise checks.CheckFailed("no samples for a metric")
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def run_setup(w, seed: int, target: Path) -> dict:
    """prepare.json of one set-up process."""
    proc = subprocess.run(
        [sys.executable, str(common.BENCH / "prepare.py"),
         "--workload", w.name, "--seed", str(seed), "--out", str(target)],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RunFailed(f"set-up {target.name} failed:\n{proc.stderr.strip()}")
    return json.loads((target / "prepare.json").read_text())


def verify_setups(setups) -> dict:
    """Identical checkpoints and probe outputs from every set-up process
    and every probe round trip, well-formed loss logs of the set-up's
    training and step probe, then the codec checks of each probe.
    Returns the codec metrics of the probes that are not the first of
    their set-up, taken together as one round (empty when each set-up
    makes one)."""
    first = setups[0]
    reference = first["probes"][0]
    for doc in setups:
        checks.check_identical(Path(first["model"]).read_bytes(),
                               Path(doc["model"]).read_bytes(), "set-up checkpoints")
        for probe in doc["probes"]:
            for key, what in [("fmb", "probe streams"), ("wav", "probe decoded wavs")]:
                checks.check_identical(Path(reference[key]).read_bytes(),
                                       Path(probe[key]).read_bytes(), what)
    cfg = common.config.from_json(Path(first["model"]).parent / "setup-config.json")
    checks.check_coding_log(first["coding_log"], cfg, decreasing=False)
    checks.check_refine_log(first["refine_log"], cfg, decreasing=False)
    if "step_probe_logs" in first:
        coding_log, refine_log = first["step_probe_logs"]
        probe_cfg = common.config.from_json(
            Path(first["model"]).parent / "step-probe-config.json")
        checks.check_coding_log(coding_log, probe_cfg, decreasing=False)
        checks.check_refine_log(refine_log, probe_cfg, decreasing=False)
    verifier = workloads.CodecVerifier(Path(first["model"]))
    warm = []
    for doc in setups:
        for i, probe in enumerate(doc["probes"]):
            op = dict(probe)
            op["vocoder_mel"] = np.load(Path(doc["model"]).parent / f"probe{i}-mel.npy")
            result = verifier.verify(op)
            if i:
                warm.append(result)
    return codec_metrics([warm]) if warm else {}


def codec_metrics(rounds: list[list[dict]]) -> dict:
    """RTFs are total time over total audio within a round, then the median
    over rounds: a round mixes utterance lengths on purpose, so the median
    of single operations would only pick whichever length sits in the
    middle. Quality and bitrate are medians over operations."""
    def rtf(stage: str) -> float:
        return _median(sum(op[f"{stage}_s"] for op in r if f"{stage}_s" in op)
                       / sum(op["seconds"] for op in r if f"{stage}_s" in op)
                       for r in rounds)

    ops = [op for r in rounds for op in r]
    return {"encode_rtf": rtf("encode"), "decode_rtf": rtf("decode"),
            "resynth_mel_l1": _median(op["resynth_mel_l1"] for op in ops
                                      if "resynth_mel_l1" in op),
            "payload_bps": _median(op["payload_bps"] for op in ops)}


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------

class Loop:
    """Whole rounds of one workload's operations. In a traced run the first
    round is untraced and the later ones are traced."""

    def __init__(self, w, seed: int, workdir: Path, setup: dict, trace: bool,
                 cal: calib.Calibration):
        self.w, self.seed, self.workdir, self.trace = w, seed, workdir, trace
        self.setup, self.cal = setup, cal
        self.hooks = Hooks(common.MODULES)
        self.tracer = Tracer(common.MODULES) if trace else None
        self.attempted = self.failed = 0
        self.results: list[dict] = []     # one per successful operation
        self.errors: list[str] = []
        if w.kind == "codec":
            self.model = Path(setup["model"])
            self.verifier = workloads.CodecVerifier(self.model)

    def close(self) -> None:
        self.hooks.restore()

    def run(self, seconds: float, between_rounds) -> None:
        """Whole rounds until their summed time reaches `seconds` (and, when
        tracing, until one traced round is done); calls between_rounds()
        after every round but the last."""
        self.warm_up()
        busy, index, rounds = 0.0, 0, 0
        while True:
            traced = self.trace and rounds > 0
            start = time.perf_counter()
            for op in self.round_ops():
                self.cal.sample()
                self.attempted += 1
                try:
                    result = op(index, traced)
                    result.update(index=index, round=rounds, traced=traced)
                    self.results.append(result)
                except workloads.OpFailed as exc:
                    self.failed += 1
                    self.errors.append(f"op {index}: {exc}")
                index += 1
            rounds += 1
            busy += time.perf_counter() - start
            if busy >= seconds and traced == self.trace:
                self.cal.sample()
                break
            between_rounds()

    def round_ops(self):
        """Operations of one round, each called as op(index, traced)."""
        if self.w.kind == "codec":
            return ([lambda i, t, s=s: self.codec(i, t, s, True)
                     for s in self.w.lengths]
                    + [lambda i, t, s=s: self.codec(i, t, s, False)
                       for s in self.w.encode_lengths])
        return [self.train]

    def warm_up(self) -> None:
        """One untimed operation, so that the first timed one does not pay
        this process's first-call costs: a round trip of the set-up probe,
        or a short training run."""
        if self.w.kind == "codec":
            workloads.codec_op(self.model, Path(self.setup["probes"][0]["wav_in"]),
                               self.workdir, "warm-up", self.hooks)
        else:
            cfg_path = self.workdir / "warm-up-config.json"
            workloads.write_config(cfg_path, self.w.preset,
                                   workloads.WARM_UP_TRAIN, seed=0)
            workloads.train_op(self.setup["corpus"], cfg_path, self.workdir,
                               "warm-up", self.hooks)

    def _call(self, index: int, traced: bool, fn):
        """fn(), under the tracer when `traced`."""
        if not traced:
            return fn()
        self.tracer.op_id = index
        tracemalloc.start()
        self.tracer.install()
        try:
            return fn()
        finally:
            self.tracer.restore()
            tracemalloc.stop()

    def codec(self, index: int, traced: bool, seconds: float, decode: bool) -> dict:
        wav_in = self.workdir / f"op{index}.wav"
        synth.write_wav(wav_in, workloads.clip_for(self.seed, index, seconds))
        op = self._call(index, traced, lambda: workloads.codec_op(
            self.model, wav_in, self.workdir, f"op{index}", self.hooks, decode))
        result = self.verifier.verify(op)
        if traced and decode:
            evals = sum(1 for s in self.tracer.spans
                        if s[0] == "refine.VelocityNet" and s[4] == index)
            checks.check_velocity_evals(evals, workloads.ITERS)
        result["op_s"] = op["encode_s"] + op.get("decode_s", 0.0)
        return result

    def train(self, index: int, traced: bool) -> dict:
        cfg_path = self.workdir / f"op{index}-config.json"
        op_seed = int(np.random.default_rng([self.seed, 3, index]).integers(2 ** 31))
        workloads.write_config(cfg_path, self.w.preset, self.w.train, op_seed)
        start = time.perf_counter()
        op = self._call(index, traced, lambda: workloads.train_op(
            self.setup["corpus"], cfg_path, self.workdir, f"op{index}", self.hooks))
        result = {key: op[key] for key in _STEPS}
        result["op_s"] = time.perf_counter() - start
        workloads.verify_train(op, decreasing=True)
        return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(w, loop: Loop, setups, probe: dict) -> dict:
    """Wall-time figures (measure scales the loop's timings). Figures the
    loop does not measure come from the set-ups, which run in other
    processes in bursts of a second or so: their speed follows the
    machine's state during that burst, not the loop's calibration, so they
    stay in wall seconds. Step intervals fall into two groups about 40 %
    apart (the machine's fast and slow states, see calib.py), so a median
    of intervals, or of a few short training runs, jumps between the
    groups. Step metrics are therefore means: of all intervals of the
    set-ups' step probes or trainings on the codec workloads, and of each
    loop training run (then the median over runs) on train-desk."""
    untraced = [r for r in loop.results if not r["traced"]]
    values = {"setup_s": _median(doc["setup_s"] for doc in setups),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if w.kind == "codec":
        rounds = {}
        for r in untraced:
            rounds.setdefault(r["round"], []).append(r)
        values.update(codec_metrics(list(rounds.values())))
        for key in _STEPS:   # from the set-ups' step probe or training
            values[key] = statistics.fmean(x for doc in setups for x in doc[key])
    else:
        if not probe:
            raise checks.CheckFailed("no checked set-up probe to measure")
        values.update(probe)  # the codec metrics come from the set-up probe
        for key in _STEPS:
            values[key] = _median(statistics.fmean(r[key]) for r in untraced)
    return values


def per_layer(loop: Loop) -> dict:
    """Per-layer figures summed over the operations of a round, then the
    median over rounds (a round mixes operations on purpose)."""
    summary = loop.tracer.summarize({r["index"]: r["round"] for r in loop.results})
    rounds = sorted({r["round"] for r in loop.results if r["traced"]})
    layers = [summary["layers"][r] for r in rounds]

    def stat(name: str, key: str) -> float:
        return _median(layer.get(name, {}).get(key, 0.0) for layer in layers)

    def per_call(name: str) -> float:
        entries = [layer.get(name) for layer in layers]
        return _median(e["incl"] / e["calls"] if e else 0.0 for e in entries)

    def per_pass(op_name: str) -> float:
        per_round = []
        for r in rounds:
            passes = summary["tape"].get(r, [])
            count = sum(sum(c.values()) if op_name == "total" else c[op_name]
                        for c in passes)
            per_round.append(count / len(passes) if passes else 0.0)
        return _median(per_round)

    def round_s(traced: bool) -> float:
        ops = [r for r in loop.results if r["traced"] == traced]
        return _median(sum(op["op_s"] for op in ops if op["round"] == r)
                       for r in {op["round"] for op in ops})

    values = {}
    for metric in per_layer_units():
        name, _, kind = metric.rpartition(".")
        if metric.startswith("tensor.tape_nodes."):
            values[metric] = per_pass(kind)
        elif metric.startswith("trace."):
            continue
        elif metric == "refine.VelocityNet.velocity.s":
            values[metric] = per_call(name)
        elif metric == "refine.velocity_evals":
            values[metric] = stat("refine.VelocityNet", "calls")
        else:
            key = {"s": "self", "self_s": "self", "incl_s": "incl",
                   "calls": "calls", "peak_mb": "peak"}[kind]
            values[metric] = stat(name, key) / (2 ** 20 if kind == "peak_mb" else 1)
    untraced, traced = round_s(False), round_s(True)
    values.update({"trace.untraced_round_s": untraced,
                   "trace.traced_round_s": traced,
                   "trace.overhead_pct": 100.0 * (traced / untraced - 1.0)})
    return values


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def measure(w, seed: int, seconds: float, trace: bool, workdir: Path,
            setup, n_setups: int = SETUPS) -> dict:
    """Set-ups, the measured loop and the checks of one run. `setup(target)`
    makes one set-up in directory `target` and returns its prepare.json.
    A traced run reports the per-layer metrics besides the
    end-to-end ones, which it takes from its untraced operations."""
    problems = []
    cal = calib.Calibration()
    setups = []

    # The later set-ups run between rounds, so that the figures taken from
    # set-ups sample the whole run, not just its first seconds.
    def next_setup():
        if len(setups) < n_setups:
            setups.append(setup(workdir / f"setup{len(setups)}"))

    next_setup()
    loop = Loop(w, seed, workdir, setups[0], trace, cal)
    try:
        loop.run(seconds, next_setup)
    except checks.CheckFailed as exc:
        problems.append(f"operation {loop.attempted - 1}: {exc}")
    finally:
        loop.close()
    while len(setups) < n_setups:
        next_setup()
    try:
        probe = verify_setups(setups)
    except checks.CheckFailed as exc:
        probe = {}
        problems.append(f"set-up: {exc}")
    if not loop.results:
        raise RunFailed("no operation completed: "
                        + "; ".join(loop.errors + problems))
    try:
        wall = end_to_end(w, loop, setups, probe)
        factor = cal.factor()
        scaled = _LOOP_TIMINGS[w.kind]
        tables = [({key: value * factor if key in scaled else value
                    for key, value in wall.items()}, END_TO_END)]
        if trace:
            tables.append((per_layer(loop), per_layer_units()))
    except checks.CheckFailed as exc:
        raise RunFailed("; ".join([str(exc)] + problems)) from exc
    return {"correct": not problems, "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": [{key: {"value": values[key], "unit": unit}
                         for key, unit in units.items()}
                        for values, units in tables],
            "problems": problems + loop.errors, "loop": loop,
            "wall_metrics": wall, "calibration_factor": factor,
            "setups": setups}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = workloads.WORKLOADS[name]
    common.WORK.mkdir(parents=True, exist_ok=True)
    common.RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=common.WORK))
    try:
        run = measure(w, seed, seconds, trace, workdir,
                      lambda target: run_setup(w, seed, target))
    except RunFailed as exc:
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loop = run.pop("loop")
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        loop.tracer.write(common.RESULTS / f"{tag}.spans.jsonl")
        if loop.tracer.missing:
            print("not traced (no longer in the program): "
                  + ", ".join(loop.tracer.missing))
    run["metrics"] = run["metrics"][-1]  # per-layer when traced
    result = {key: run[key] for key in ("correct", "attempted", "failed", "metrics")}
    (common.RESULTS / f"{tag}.json").write_text(json.dumps(
        {**run, "operations": loop.results, "calibration_s": loop.cal.samples},
        indent=1, default=float))
    for problem in run["problems"]:
        print(f"FAILED: {problem}")
    print(f"{name} seed {seed}: {loop.attempted} operations, "
          f"{loop.failed} failed, correct={run['correct']}, timings scaled by "
          f"{run['calibration_factor']:.4f} (calibration kernel "
          f"{statistics.fmean(loop.cal.samples) * 1e3:.2f} ms, reference "
          f"{calib.REFERENCE_S * 1e3:.2f} ms)")
    wall = run["wall_metrics"]
    for key, m in run["metrics"].items():
        note = (f" (wall {wall[key]:.6g})"
                if not trace and wall[key] != m["value"] else "")
        print(f"  {key} = {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
