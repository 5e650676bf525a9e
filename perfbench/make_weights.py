"""Train the desk system with the fixed weights seed and keep its stage-2 weights.

Run from the repository root:  python3 perfbench/make_weights.py

It writes checkpoints the way ``eevit train`` does into perfbench/out/weights
and copies stage2_final.ckpt to perfbench/desk_seed0.ckpt, which the
inference workloads load.  Remake the file when the checkpoint format or
the parameter names change.  Takes about 3 minutes on 2 CPUs.
"""

from __future__ import annotations

import os
import shutil
import time

import common
from eevit.config import build_system
from eevit.data import build_dataset
from eevit.train import stage1_train, stage2_train


def main() -> None:
    out_dir = os.path.join(common.OUT_DIR, "weights")
    os.makedirs(out_dir, exist_ok=True)
    run = common.desk_run(common.WEIGHTS_SEED, out_dir)
    system = build_system(run)
    dataset = build_dataset(run.data)
    start = time.perf_counter()
    stage1_train(system.model, dataset, run.train, out_dir)
    history = stage2_train(system.model, system.branches, dataset, run.train, system.placement, out_dir)
    shutil.copyfile(os.path.join(out_dir, "stage2_final.ckpt"), common.WEIGHTS)
    accs = " ".join(f"{k}={v:.3f}" for k, v in history[-1].items() if k.endswith("_acc"))
    print(f"wrote {common.WEIGHTS} in {time.perf_counter() - start:.0f} s; {accs}")


if __name__ == "__main__":
    main()
