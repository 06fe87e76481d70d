"""Generate one workload's inputs from its seed, several times, and time it.

Usage: python3 perfbench/setup_inputs.py WORKLOAD SEED OUT_DIR RESULT_JSON MIN_REPEATS

Runs the generation into OUT_DIR at least MIN_REPEATS times and, when
MIN_REPEATS > 1, until SETUP_MIN_SECONDS have passed; the last one stays.
Lists the patients the workload scores in OUT_DIR/patients.json and writes
the per-repeat seconds and the environment record to RESULT_JSON.
Interpreter start-up and imports are not timed.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import sawtopics as st
from sawtopics import cli
from sawtopics.synthgen import save_ground_truth

from events import generate_events
from workloads import FIT_LARGE, INGEST_1M, SETUP_MIN_SECONDS, WALKTHROUGH_SYNTH


def sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def setup_walkthrough(seed: int, out: Path) -> None:
    """The README corpus; its seed is fixed (see workloads.WALKTHROUGH_SYNTH)."""
    rc = cli.main(["synth", *WALKTHROUGH_SYNTH, "--out", str(out / "corpus.json"),
                   "--truth-out", str(out / "truth.json")])
    if rc != 0:
        raise RuntimeError(f"synth exited {rc}")


def setup_fit_large(seed: int, out: Path) -> list[str]:
    p = FIT_LARGE
    corpus, truth = st.generate_dataset(
        d=p["d"], k=p["k"], n=p["n"], doc_length=p["doc_length"],
        dirichlet_concentration=0.1, anchor_mass=0.3, beta_true=np.array(p["beta"]),
        base_rate=0.1, censor_fraction=0.2, seed=sub_seed(seed, 1))
    train, test = st.split(corpus, p["train_fraction"], seed=sub_seed(seed, 2))
    st.save_corpus(train, out / "train.json")
    st.save_corpus(test, out / "test.json")
    save_ground_truth(truth, out / "truth.json")
    return list(test.patient_ids)


def setup_ingest_1m(seed: int, out: Path) -> list[str]:
    return generate_events(out / "events.csv", out / "labels.csv", seed=sub_seed(seed, 3),
                           **INGEST_1M)


def _blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, read from the library itself."""
    libs = sorted({line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                   if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            if hasattr(handle, fn):
                getattr(handle, fn).restype = ctypes.c_int
                out[os.path.basename(lib)] = int(getattr(handle, fn)())
                break
    return out


def environment() -> dict:
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS so its threads are reported)

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        threads = _blas_threads()
    except OSError:
        threads = {}
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas_name, "blas_threads": threads, "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


SETUPS = {"walkthrough": setup_walkthrough, "fit_large": setup_fit_large,
          "ingest_1m": setup_ingest_1m}


def main(argv: list[str]) -> None:
    name, seed, out, result, min_repeats = (argv[0], int(argv[1]), Path(argv[2]), Path(argv[3]),
                                            int(argv[4]))
    out.mkdir(parents=True, exist_ok=True)
    setup = SETUPS[name]
    times = []
    while len(times) < min_repeats or (min_repeats > 1 and sum(times) < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        patients = setup(seed, out)
        times.append(time.perf_counter() - t0)
    # the patients every predictions file must cover, one row each; synth
    # returns none, so they are read back outside the timed set-up
    if patients is None:
        patients = list(st.load_corpus(out / "corpus.json").patient_ids)
    (out / "patients.json").write_text(json.dumps(patients) + "\n")
    result.write_text(json.dumps({"setup_s": times, "env": environment(),
                                  "package": st.__file__}) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
