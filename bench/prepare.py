"""One benchmark set-up, run as its own process by run.py.

    python3 bench/prepare.py --workload NAME --seed N --out DIR

Writes the workload's seeded corpus and trains a set-up checkpoint with
`melcodec train` at cut step counts: that is the set-up, timed from the
first corpus sample to the checkpoint on disk. Then it round-trips a short
probe clip through `melcodec encode` and `decode` with the checkpoint and,
for a workload with a step probe, trains once more to time optimizer steps,
both outside the set-up time. The checks run later, in run.py. Everything the
checks and metrics need goes to DIR/prepare.json and DIR/probe<i>-mel.npy.
"""

from __future__ import annotations

import common  # before numpy: pins the BLAS and the melcodec source

import argparse
import json
import time
from pathlib import Path

import numpy as np

import synth
import workloads
from spans import Hooks


def prepare(w: workloads.Workload, seed: int, out: Path) -> None:
    out.mkdir(parents=True)
    cfg_path = out / "setup-config.json"
    workloads.write_config(cfg_path, w.preset, w.setup, seed=0)
    hooks = Hooks(common.MODULES)
    try:
        start = time.perf_counter()
        corpus = synth.write_corpus(out / "corpus", *w.corpus, seed)
        train = workloads.train_op(corpus, cfg_path, out, "model", hooks)
        setup_s = time.perf_counter() - start
        probe = out / "probe.wav"
        synth.write_wav(probe, workloads.probe_clip(seed))
        probes = [workloads.codec_op(train["model"], probe, out, f"probe{i}", hooks)
                  for i in range(w.probes)]
        steps = train
        if w.step_probe:
            probe_cfg = out / "step-probe-config.json"
            workloads.write_config(probe_cfg, w.preset, w.step_probe, seed=0)
            steps = workloads.train_op(corpus, probe_cfg, out, "step-probe", hooks)
    finally:
        hooks.restore()
    for i, op in enumerate(probes):
        np.save(out / f"probe{i}-mel.npy", op.pop("vocoder_mel"))
    doc = {"setup_s": setup_s, "corpus": corpus, "model": str(train["model"]),
           "coding_log": str(train["coding_log"]),
           "refine_log": str(train["refine_log"]),
           "probes": [{key: str(value) if isinstance(value, Path) else value
                       for key, value in op.items()} for op in probes]}
    for key in ("coding_step_s", "refine_step_s", "refine_sc_step_s"):
        doc[key] = [float(x) for x in steps[key]]
    if w.step_probe:
        doc["step_probe_logs"] = [str(steps["coding_log"]), str(steps["refine_log"])]
    (out / "prepare.json").write_text(json.dumps(doc, indent=1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    prepare(workloads.WORKLOADS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
