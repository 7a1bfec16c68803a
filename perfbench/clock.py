"""The benchmark's clock: CPU seconds, scaled to a fixed machine speed.

Every timing is CPU time of the process that does the work. The workload is
single-threaded (one BLAS thread, `vrl --jobs 1`, no worker processes), so on
an idle machine CPU time equals wall time, and it leaves out time a shared
machine hands to other tenants.

On a shared virtual machine the speed of a CPU second still drifts: a fixed
loop took from 0.10 s to 0.21 s of CPU within one minute, in phases from a
second to minutes long. So a fixed reference workload (``reference_s``:
numpy only, no vrlkit code) runs right before and right after every timed
stretch of work (one stage, or one set-up probe), and the stretch's CPU time
is scaled by ``REF_NOMINAL_S`` over the mean of those two reference times. A
change to vrlkit moves the stretch, never the reference. Over two sets of
ten runs per workload, the spread (interquartile range over median) of the
pipeline time was 0.03-0.10 scaled, against 0.06-0.15 in unscaled CPU time.
The unscaled CPU and wall times are reported next to the scaled ones.
"""

import time

import numpy as np

CPU = time.process_time

# About the median CPU time of reference_s() on the 2-vCPU x86-64 VM the
# benchmark was defined on (Python 3.11, numpy 2.4, OpenBLAS 0.3 with one
# thread). It only sets the scale: a scaled second is a CPU second at that
# machine's usual speed.
REF_NOMINAL_S = 0.037

_REF_A = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_REF_B = _REF_A.T.copy()
_REF_BIG = np.linspace(-1.0, 1.0, 512 * 512).reshape(512, 512)  # 2 MiB
_REF_SMALL = np.linspace(0.0, 1.0, 90)


def reference_s() -> float:
    """CPU seconds of a fixed mix like vrlkit's: small GEMMs, tanh, exp and
    boolean masks called from a Python loop, plus passes over a 2 MiB array.

    A loop of small-array calls alone sped up ~1.9x in the machine's fast
    phases where vrlkit sped up ~1.3x, so it over-corrected; this mix
    tracked demo-, library- and cifar-like work more closely.
    """
    start = CPU()
    total = 0.0
    for _ in range(400):
        h = np.tanh(_REF_A @ _REF_B)
        total += float(h[h > 0.1].mean()) + float(np.exp(-h).sum())
    for _ in range(10):
        total += float((_REF_BIG * 1.0001).sum())
    for _ in range(1000):
        total += float(_REF_SMALL[_REF_SMALL > 0.5].mean())
    return CPU() - start


class Scaled:
    """Scales the CPU time of each stretch of work by references taken
    right before and right after it."""

    def __init__(self):
        # The first pass after idle time or file I/O varied more than the
        # passes after it, so it only warms up.
        reference_s()
        self.refs = [reference_s()]

    def scale(self, cpu_s: float) -> float:
        """Scaled seconds of cpu_s, measured since the previous reference."""
        self.refs.append(reference_s())
        return cpu_s * REF_NOMINAL_S * 2 / (self.refs[-2] + self.refs[-1])
