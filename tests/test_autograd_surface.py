"""The autograd holds only what the system calls.

One real desk-sized stage-1 batch, one stage-2 batch under LGViT's exit
placement and one cascade over the same images run under
``sys.setprofile``; every function, method and property that
``eevit.autograd`` makes public must be called.  An op that only tests
reach is code the system does not need, so it fails here.
"""

import inspect
import sys

from eevit import autograd as ag
from eevit.config import build_run_config, build_system
from eevit.data import build_dataset
from eevit.inference import cascade
from eevit.train import stage1_train, stage2_train

# The only public names the system may leave uncalled, each with its reason.
EXEMPT = {
    "power": "the layer-norm and batch-norm oracles in test_autograd.py write (var + eps) ** -0.5 "
    "with it, bitwise as layer_norm and batch_norm compute it",
    "Tensor.__pow__": "the `**` of power, which the test losses use",
    "Tensor.__repr__": "what pytest and a debugger print for a tensor",
}


def _public_surface() -> dict:
    """Code object -> the public names bound to it (an alias shares its original's code)."""
    surface: dict = {}

    def add(name, fn):
        if inspect.isfunction(fn):
            surface.setdefault(fn.__code__, []).append(name)

    for name, obj in vars(ag).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != ag.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and not attr.endswith("__"):
                    continue
                fn = getattr(member, "fget", None) or getattr(member, "__func__", member)
                add(f"{name}.{attr}", fn)
        else:
            add(name, obj)
    return surface


def _calls_of_the_system() -> set:
    run = build_run_config(
        {"data.per_class": "3", "train.epochs_stage1": "1", "train.epochs_stage2": "1"}
    )
    system = build_system(run)
    assert system.placement.kinds == ("lph", "lph", "gah", "gah")
    dataset = build_dataset(run.data)
    assert len(dataset) <= run.train.batch_size  # one batch per epoch
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # The cascade's first slab runs on the calling thread, so it is seen here.
    sys.setprofile(profile)
    try:
        stage1_train(system.model, dataset, run.train)
        stage2_train(system.model, system.branches, dataset, run.train, system.placement)
        cascade(system.model, system.branches, dataset.images, run.policy.tau)
    finally:
        sys.setprofile(None)
    return called


def test_every_public_autograd_name_is_called_by_the_system():
    surface = _public_surface()
    called = _calls_of_the_system()
    uncalled = {n for code, ns in surface.items() if code not in called for n in ns}
    dead = sorted(uncalled - set(EXEMPT))
    assert not dead, f"autograd names the system never calls: {dead}"
    stale = sorted(set(EXEMPT) - uncalled)
    assert not stale, f"exempt names that the system calls, or that are gone: {stale}"
