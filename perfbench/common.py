"""Shared set-up for the benchmark: import path, desk system, inputs, machine facts.

The benchmark runs from a bare checkout in which ``eevit`` is not
installed, so this module puts the checkout's ``src`` on the import path
before anything imports the package.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import eevit  # noqa: E402
from eevit.config import build_run_config  # noqa: E402
from eevit.data import gen_synthetic, normalize_images  # noqa: E402

# Measure the checkout's code, never an installed copy.
if os.path.dirname(os.path.dirname(os.path.abspath(eevit.__file__))) != SRC:
    raise SystemExit(f"eevit was imported from {eevit.__file__}, not from {SRC}")

# Everything the benchmark writes goes here; the root .gitignore names it.
OUT_DIR = os.path.join(HERE, "out")
# Stage-2 weights of the desk system trained with WEIGHTS_SEED (see make_weights.py).
WEIGHTS = os.path.join(HERE, "desk_seed0.ckpt")
WEIGHTS_SEED = 0

# The desk geometry, spelled out so that the benchmark does not follow
# edits to configs/desk.conf; every other key keeps its built-in default.
DESK = {
    "model.layers": "8",
    "model.dim": "64",
    "exits.positions": "2,4,6,7",
    "exits.kinds": "lph,lph,gah,gah",
}

# Held-out stream: each image is a class prototype of the training seed
# plus Gaussian pixel noise at one of these levels, in equal shares.  The
# levels are chosen so that, on the kept weights at tau 0.9, images leave
# at every exit and some run the full depth (README, "Workloads").
STREAM_NOISE = (0.05, 0.3, 0.5, 0.7)


def desk_run(seed: int, out_dir: str = OUT_DIR, **entries: str):
    """RunConfig of the desk system with ``run.seed`` (and the data seed) set."""
    merged = dict(DESK, **{"run.seed": str(seed), "run.output_dir": out_dir})
    merged.update(entries)
    return build_run_config(merged)


def held_out_stream(run, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` normalized images of the training classes with fresh noise.

    The prototypes come from ``gen_synthetic`` with the training seed and
    noise 0; the noise comes from ``seed``, which the training data never
    used, so the stream shares its classes with training and nothing else.
    """
    spec = run.data
    protos, _ = gen_synthetic(
        spec.num_classes, 1, spec.image_side, spec.channels, 0.0, WEIGHTS_SEED
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    labels = np.resize(np.arange(spec.num_classes), count)
    levels = np.resize(np.asarray(STREAM_NOISE), count)
    rng.shuffle(labels)
    rng.shuffle(levels)
    noise = rng.standard_normal((count,) + protos.shape[1:]) * levels[:, None, None, None]
    pixels = np.clip(protos[labels] + noise, 0.0, 1.0)
    return normalize_images(pixels, spec), labels


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }
