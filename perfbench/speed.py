"""Machine-speed gauge for a shared, noisy host.

On the 2-vCPU virtual machine where the benchmark was defined, the CPU time
of one fixed piece of work drifted by up to 60% within a minute, because
other guests share the physical cores.  The drift is common to all work in
the process, so the benchmark measures a fixed reference kernel (numpy,
scipy.special, small LAPACK calls and plain Python, like rsv's mix) between
consecutive cases and scales each case's CPU time by

    REF_NOMINAL_S / (mean of the reference times measured before and after it)

The result, "reference seconds", is the case's CPU time at the speed the
machine had when the reference kernel took REF_NOMINAL_S.  On that machine
it cut the spread of repeated eigen solves from about 25% to about 3%.
The kernel is the benchmark's own code, so it is the same on every commit.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.special import jv, lpmv

# CPU seconds of one reference_cpu() call at a typical quiet moment on the
# defining machine; it only sets the scale of the reported seconds
REF_NOMINAL_S = 0.0125

_X = np.linspace(-0.99, 0.99, 2048)
_Z = np.linspace(0.1, 5.0, 400)
_A = np.random.default_rng(0).standard_normal((160, 40))


def _kernel() -> float:
    acc = 0.0
    for m in range(6):
        acc += float(lpmv(m, 12, _X).sum())
    acc += float(jv(np.arange(20)[:, None], _Z[None, :]).sum())
    q, _r = np.linalg.qr(_A)
    acc += float(np.linalg.svd(q[:80], compute_uv=False)[-1])
    total = 0
    for i in range(10000):
        total += i * i
    return acc + total


def reference_cpu() -> float:
    """CPU seconds of two runs of the reference kernel."""
    start = time.process_time()
    _kernel()
    _kernel()
    return time.process_time() - start


class SpeedGauge:
    """Scales CPU seconds to reference seconds, one measurement between
    consecutive timed pieces of work."""

    def __init__(self):
        self.last = reference_cpu()
        self.samples = [self.last]

    def scale(self, cpu_s: float) -> float:
        ref = reference_cpu()
        self.samples.append(ref)
        factor = REF_NOMINAL_S / (0.5 * (self.last + ref))
        self.last = ref
        return cpu_s * factor
