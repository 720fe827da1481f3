"""The benchmark's traced run wraps embmask functions by name.

perfbench/tracing.py lists them in HOOKS; a refactor that renames or moves
one breaks ``perfbench/run.py --trace 1``. This guard loads that file
without changing it and checks every name still resolves.
"""

import importlib
import importlib.util
import os
import sys

import embmask.tensor

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
