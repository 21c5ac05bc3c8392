"""Host-speed probe that puts the benchmark's timings on a common scale.

On the 2-vCPU host where the benchmark was defined, the speed of the
host drifts: the per-second median latency of a fixed stream of ``expand``
requests sat near 7.3 ms for 20 s, then near 6.7 ms, then near 4.3 ms for
most of the next half minute.  CPU time equalled wall time throughout, so
the cause is other load on the same physical cores rather than the
scheduler.  Over 20 s windows the median latency of a fixed request stream
spread by 28-39% (quartile distance over median), more than any regression
bound can absorb.

The drift slows interpreter-bound requests (``verify``, ``scan``,
``expand``) by up to 1.9x.  The probe is a fixed piece of work of that kind:
a Python loop of complex arithmetic and dict stores plus small
``np.convolve`` calls, about 1.5 ms.  The benchmark runs it immediately
before each timed call and reports the call's time multiplied by
``(REFERENCE_S / probe time) ** e``.  With ``e = 1`` that is the call's time
at the host speed where the probe takes its reference time; in 20 s windows
this cut the spread of the median latency from 0.36 to 0.06 (``verify``)
and from 0.39 to 0.08 (``expand``).  The numpy-bound rasterizer slowed by
only 1.2-1.35x while the probe slowed by up to 1.9x, so ``region`` uses
``e = 0.5``.  The probe is frozen: changing it rescales every scaled
timing.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time at the fast state of the defining host (Intel Xeon with
#: 105 MB L3, 2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_S = 1.5e-3


def _work() -> None:
    acc = 0j
    table = {}
    for k in range(3000):
        acc = acc * 0.999 + complex(k, -k) * 1e-6
        table[k & 63] = acc
    a = np.arange(65, dtype=np.complex128)
    for _ in range(60):
        a = np.convolve(a, a)[:65] * 1e-3


def scale() -> float:
    """Factor that converts a time measured now to the reference speed."""
    t0 = time.perf_counter()
    _work()
    return REFERENCE_S / (time.perf_counter() - t0)
