"""The tests' one gradient oracle: central finite differences.

Imported by the test modules (pytest puts ``tests/`` on ``sys.path``).
"""

import numpy as np


def finite_difference_error(flat, loss, grad, eps=1e-5):
    """Max over the entries of ``flat`` of |grad - numeric| / max(1, |grad|).

    ``loss()`` is a scalar function of the 1-d array ``flat``, which is
    perturbed in place one entry at a time and restored; ``grad`` is the
    analytic gradient, laid out like ``flat``.
    """
    num = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        lp = loss()
        flat[i] = keep - eps
        lm = loss()
        flat[i] = keep
        num[i] = (lp - lm) / (2.0 * eps)
    return float((np.abs(grad - num) / np.maximum(1.0, np.abs(grad))).max())


def fused_grad_error(store, forward, eps=1e-5):
    """``finite_difference_error`` for a fused step: ``forward()`` returns
    the loss and a backward that writes the gradient wrt ``store.flat``."""
    grad = np.zeros_like(store.flat)
    forward()[1](store.views(grad))
    return finite_difference_error(store.flat, lambda: forward()[0], grad, eps)
