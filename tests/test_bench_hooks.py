"""The benchmark's traced run wraps embmask functions by name.

perfbench/tracing.py lists them in HOOKS; a refactor that renames or moves
one breaks ``perfbench/run.py --trace 1``. This guard loads that file
without changing it and checks every name still resolves.
"""

import importlib
import importlib.util
import os
import sys

import numpy as np
import pytest

import embmask.tensor
from embmask import MaskGenConfig, Mlp, evaluate

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing():
    if "perfbench_tracing" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules["perfbench_tracing"]


def test_every_hook_resolves():
    tracing = _tracing()
    assert tracing.HOOKS
    for hook in tracing.HOOKS:
        module_name, _, cls_name = hook.owner.partition(":")
        owner = importlib.import_module(module_name)
        if cls_name:
            # install() patches the class's own attribute, not an inherited one
            assert hook.attr in vars(getattr(owner, cls_name)), hook.span
        else:
            assert callable(getattr(owner, hook.attr)), hook.span


def test_tensor_class_exists_and_install_round_trips():
    assert isinstance(embmask.tensor.Tensor, type)
    tracer = _tracing().Tracer()
    init = embmask.tensor.Tensor.__init__
    tracer.install()
    tracer.uninstall()
    assert embmask.tensor.Tensor.__init__ is init


@pytest.mark.parametrize("mode", ["noise_free", "expected", "sample_avg"])
def test_a_traced_emg_masks_call_splits_into_its_two_layers(mode):
    """``emg_masks`` calls ``drop_probabilities`` and ``inference_mask`` by
    name, so a traced call records one span of each under its own, and the
    per-layer metrics keep both."""
    tracing = _tracing()
    for hook in tracing.HOOKS:
        importlib.import_module(hook.owner.partition(":")[0])
    gen = Mlp([3, 5, 4], prefix="g.", seed=4)
    x = np.random.default_rng(0).normal(size=(7, 3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin(0)
        evaluate.emg_masks(gen, x, MaskGenConfig(inference_mode=mode), seed=1)
        tracer.end()
    finally:
        tracer.uninstall()
    (top,) = [s for s in tracer.spans if s.name == "evaluate.emg_masks"]
    assert top.rows == 7
    children = [(s.name, s.rows) for s in tracer.spans if s.parent == top.id]
    assert children == [("mask.drop_probabilities", 0), (f"mask.inference_mask.{mode}", 7)]
