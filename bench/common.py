"""Process set-up shared by the benchmark's entry scripts.

Import this before numpy: it pins the BLAS to one thread and puts the
checkout's own `src/` first on the import path, so the benchmark measures
the melcodec source beside it and refuses to run without it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("FMC_SEED", None)  # the benchmark's seeds decide the inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"

if not (SRC / "melcodec" / "__init__.py").is_file():
    sys.exit(f"error: no melcodec source under {SRC}")
sys.path.insert(0, str(SRC))

from melcodec import (bitstream, cli, coding, config, dsp, nn, ocvq,  # noqa: E402
                      refine, tensor)

if Path(cli.__file__).resolve().parent != SRC / "melcodec":
    sys.exit(f"error: imported melcodec from {cli.__file__}, not {SRC}")

MODULES = {"cli": cli, "config": config, "dsp": dsp, "coding": coding,
           "ocvq": ocvq, "refine": refine, "nn": nn, "tensor": tensor,
           "bitstream": bitstream}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """In-process `melcodec <argv>`: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()
