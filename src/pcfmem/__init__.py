"""pcfmem: memory-policy learning for photonic-crystal-fiber design.

A PPO-trained controller picks memory-editing skills span by span over
design traces; a rule-based executor applies them to a per-trace memory
bank; an outer loop evolves the skill bank from clustered failures under
validation-gated acceptance. Everything is grounded in a deterministic
analytic fiber model with exact simulation-call accounting.
"""

import ctypes
import sys

import numpy as np

__version__ = "0.1.0"


def pin_blas_threads() -> None:
    """Run the BLAS bundled with numpy on one thread.

    The bits of a matrix product depend on the BLAS thread count, and the
    bits of the controller's forward pass decide its picks and the designer
    gate, so outputs are byte-identical across hosts only at one fixed
    count. The call goes through numpy's bundled scipy-openblas; another
    BLAS build keeps its own threading, with a one-line warning on stderr.
    Importing the package calls it once, before any training or eval.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        print(
            "pcfmem: warning: cannot set the BLAS thread count (numpy has no "
            "bundled scipy-openblas); outputs may differ between thread counts",
            file=sys.stderr,
        )
        return
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


pin_blas_threads()

__all__ = [
    "baselines",
    "cli",
    "datagen",
    "designer",
    "embed",
    "evalsuite",
    "executor",
    "memory",
    "physics",
    "policy",
    "rollout",
    "skills",
    "trainer",
]
