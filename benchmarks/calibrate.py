"""Host-speed calibration for the end-to-end timings.

On a shared host a vCPU switches between a fast and a slow state (about 1.7x
apart) every few milliseconds to few seconds, and the share of slow time
drifts over minutes.  Two runs of the same code minutes apart then differ by
more than any useful regression bound, and a median over short ops flips
between the two states.  So the benchmark runs a short calibration probe
before the first op and after every op, and scales each op's times by
``REF_UNIT_S / unit``, where ``unit`` is the mean time of one kernel run over
the probes on either side of the op; after a long op the probe runs for a
share of the op's time, so that it averages over several switches.  A scaled
time is the time the op would have taken on a host where the kernel takes
``REF_UNIT_S``; the unscaled times are kept in the DETAIL line.

The kernel uses no ``weylbench`` code, so a change to the package moves the
op times and leaves the kernel time alone.  Its mix follows the package's:
interpreter-bound Python loops, many small numpy calls and einsums, and a
batched matrix product.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: least kernel runs per probe; a probe reports all of them
PROBE_UNITS = 3

#: a probe after an op lasts at least this share of the op's wall time, so
#: that the probes around a long op sample the host over more than an instant
PROBE_SHARE = 0.15

#: seconds one kernel run takes on the reference host (a 2-vCPU VM, Python
#: 3.11, numpy 2.4, OpenBLAS 0.3.31; 1.3 ms in its fast state, 2.3 ms in its
#: slow one); the constant only fixes the scale
REF_UNIT_S = 2.0e-3

_rng = np.random.default_rng(20160205)
_SMALL = [_rng.normal(size=(4, 4, 4, 4)) for _ in range(4)]
_PAIR = [_rng.normal(size=(10, 10)) for _ in range(4)]
_BATCH = _rng.normal(size=(32, 21, 21))


def kernel() -> float:
    """One calibration unit; the returned value only defeats dead-code removal."""
    acc = 0.0
    for i in range(60):
        t = _SMALL[i % 4]
        acc += float(np.einsum("ijkl,klmn->ijmn", t, t)[0, 1, 2, 3])
        p = _PAIR[i % 4]
        sym = 0.5 * (p + p.T)
        acc += float(np.trace(sym @ sym)) + float(np.abs(sym - sym.T).max())
        entries = {}
        for a in range(6):
            for b in range(a + 1, 6):
                entries[(a, b)] = a * 0.25 - b * 0.5 + acc * 1e-12
        acc += sum(entries.values())
    acc += float(np.matmul(_BATCH, _BATCH).sum())
    return acc


def probe(min_s: float = 0.0) -> list[float]:
    """Times of back-to-back kernel runs: PROBE_UNITS of them, or more until
    `min_s` seconds have passed."""
    times = []
    start = perf_counter()
    while len(times) < PROBE_UNITS or perf_counter() - start < min_s:
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


def scale(*probes: list[float]) -> float:
    """Factor that turns times measured between these probes into reference time."""
    return REF_UNIT_S / statistics.fmean(t for p in probes for t in p)
