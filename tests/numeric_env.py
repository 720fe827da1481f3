"""The numeric environment that the bitwise tests bind to.

Imported by the test modules (pytest puts ``tests/`` on ``sys.path``). The
golden digests and the stacked-product tests hold on the BLAS kernel and the
SIMD targets they were made with; their failure messages name this one.
"""

import ctypes

import numpy as np


def numeric_environment() -> str:
    """NumPy's version and enabled SIMD targets, and the BLAS build and the
    OpenBLAS core it runs ("unknown" where the library does not say)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    simd = " ".join(name for name, on in umath.__cpu_features__.items() if on)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    corename = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_corename64_", None)
    core = "unknown"
    if corename is not None:
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return (
        f"numpy {np.__version__}, SIMD targets {simd}; "
        f"BLAS {blas.get('name')} {blas.get('version')}, OpenBLAS core {core}"
    )
