"""Host-speed probes: a fixed piece of work timed next to every measurement.

On a shared host the same code runs up to about 1.75 times slower for
minutes at a time, when other tenants load the machine.  The CPU probe
(``host_probe``) is a fixed mix of interpreter work and small-array numpy
calls, like olab's hot loops, so it slows down with them; op times are
scaled by it.  A time measured right after the probe is reported as
``time * PROBE_REF_S / probe``: seconds on a host where the probe takes
PROBE_REF_S.

Set-up is almost all process start and imports (``import olab`` pulls in
numpy and scipy).  Its speed follows the host's speed at loading code, which
the CPU probe does not track: scaled by it, set-up times spread more than
raw ones.  Set-up times are scaled instead by the start-up probe of run.py,
a fresh interpreter that imports numpy, to STARTUP_REF_S.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_REF_S = 0.010
STARTUP_REF_S = 0.150
_DATA = np.random.default_rng(0).random(5120)


def host_probe() -> float:
    """Seconds the probe takes now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(500):
        j = (i * 37) % 4096
        x = _DATA[j : j + 1024]
        acc += float(np.sort(x)[::-1].cumsum().max())
        acc += float((x**2.0 * np.log(np.e + x)).sum())
    return time.perf_counter() - start


def scaled(seconds: float, probe: float, ref: float = PROBE_REF_S) -> float:
    """``seconds`` on a host where the probe takes ``ref``."""
    return seconds * ref / probe
