"""Host speed, measured with a fixed numpy-only kernel in its own process.

The shared hosts this benchmark runs on drift between speed modes that
last from seconds to minutes; a batch-1 forward can take 1.2 ms in one
minute and 2 ms in the next.  The benchmark therefore measures the host
right before and right after every timed part of a run and divides the
part's times by ``mean(calibration) / REFERENCE_S``: a part that ran
while the host was 30% slow has its times divided by 1.3.  Unscaled, the
Fig. 3 forward times spread by up to 38% (IQR/median over ten seeds) and
two ten-seed sets of them disagreed by 30%; scaled, both stay within a
few percent.  The scaling does not remove all drift, because the program
does not slow down by exactly the kernel's factor.

The kernel is a small convolution chain at the layer sizes of the
smoke-scale CIFAR models (pad, strided-window copy, BLAS matmul, affine,
ReLU, per layer), so it slows down with the host the way the program's
batch-1 forwards do.  It runs in a child process that is started before
the program is imported and never imports it: the program's heap,
allocator and BLAS thread pool cannot change what the kernel measures.
The child waits on its pipe while a timed part runs, so it takes no CPU
from the program.  The child runs its own BLAS on one thread: a pool
that sleeps between calibrations wakes up at an uneven pace, and the
program's pool may still be spinning on the other cores.  The
program's BLAS threads are left as the environment gives them.  Each
calibration reports the fastest of a few kernel runs, which drops the
odd run a preemption slowed.

Run as a script, this module is that child: it answers each line read
from standard input with the kernel's time in seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys

# About the seconds one calibration takes on an idle 2-vCPU Xeon host
# (numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).  A fixed constant:
# scaled metrics stay comparable across commits only while it never
# changes.
REFERENCE_S = 4.0e-3

# The environment as it was before the program was imported, so that
# nothing the program sets at import reaches the kernel.
_ENV = dict(os.environ)


class HostSpeed:
    """Handle on the calibration child; use as a context manager."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=_ENV)

    def slowdown(self):
        """How many times slower than ``REFERENCE_S`` the host is now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline()) / REFERENCE_S

    def close(self):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def openblas_function(*symbols):
    """The first of ``symbols`` exported by numpy's bundled OpenBLAS, with
    an ``int`` result, or None."""
    import ctypes
    from pathlib import Path

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(lib_path))
        for symbol in symbols:
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function
    return None


def _serve():
    import time

    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    set_threads = openblas_function("scipy_openblas_set_num_threads64_",
                                    "openblas_set_num_threads")
    if set_threads is not None:
        set_threads(1)

    gen = np.random.default_rng(0)
    # (in channels, out channels, spatial size) per layer.
    layers = ((3, 16, 32), (16, 16, 32), (16, 32, 16), (32, 32, 16),
              (32, 64, 8), (64, 64, 8), (64, 128, 4), (128, 128, 4))
    weights = [(gen.standard_normal((oc, ic * 9)) * 0.1).astype(np.float32)
               for ic, oc, _ in layers]
    image = gen.standard_normal((1, 3, 32, 32)).astype(np.float32)

    def forwards(repeats=2):
        start = time.perf_counter()
        for _ in range(repeats):
            x = image
            for (ic, oc, size), weight in zip(layers, weights):
                if x.shape[2] != size:
                    x = x[:, :, ::2, ::2]
                padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
                windows = sliding_window_view(padded, (3, 3), axis=(2, 3))
                cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
                y = weight @ cols.reshape(size * size, ic * 9).T
                x = np.maximum(y.reshape(1, oc, size, size) * 0.5 + 0.1, 0)
        return time.perf_counter() - start

    forwards()  # warm-up
    for _ in sys.stdin:
        print(repr(min(forwards() for _ in range(4))), flush=True)


if __name__ == "__main__":
    _serve()
