"""Host-speed probe that end-to-end times are corrected by.

On a shared 2-core virtual machine, host speed changes by up to 1.7x in
episodes that last from seconds to minutes, and a 30-second window of a
fixed workload still varies with an IQR/median of 0.13-0.18 from one
window to the next (``bench/drift.py`` and ``bench/README.md``). Over
10-30 second windows a bare interpreter spawn, a spawn of the C port and a
pure-Python loop slow down together (correlation 0.91-0.99). So a run times
a bare interpreter spawn now and then while it works, and reports its
times scaled to a host whose spawn takes ``REFERENCE_S``:
``measured * REFERENCE_S / median(probe times)``. The median is over the
whole round, because single probes jitter and now and then spike. A change
to reachfuzz cannot move the probe, which runs none of its code.
"""

import statistics
import subprocess
import sys
import time

REFERENCE_S = 0.040  # the probe's time on the reference host
PROBE_ARGV = [sys.executable, "-I", "-c", "pass"]


class SpeedLog:
    """Probe times, and the correction they give."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self):
        """Time one bare interpreter spawn."""
        start = time.perf_counter()
        subprocess.run(PROBE_ARGV, check=True)
        self.probes.append(time.perf_counter() - start)

    def reference_s(self, seconds: float, fixed_s: float = 0.0) -> float:
        """Reference time of work measured as ``seconds``, of which
        ``fixed_s`` is a time box that lasts as long on any host."""
        return fixed_s + (seconds - fixed_s) * REFERENCE_S / statistics.median(self.probes)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.probes)
