"""Machine-speed calibration around and during ops.

The benchmark shares its CPUs with other tenants, and their load makes the same
solve run up to twice as slow for tens of seconds at a time. A run can sit
inside such a period from start to end, so no statistic over a run's own op
times removes it. The benchmark therefore times a fixed probe between ops, and
every INTERVAL_S during an op from a timer signal, and scales each op's wall
time by NOMINAL_S over the probe's median near that op. The time the probe
takes inside an op is taken out of the op's time. The probe uses no blfix code,
so a change to blfix cannot move it. It makes the same kind of calls that blfix
makes: small Cholesky factorizations, solves, eigensolves and products, called
from Python. Raw wall times are also kept.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

# About the probe's median time on a 2-core Xeon (Sapphire Rapids) VM; it only
# sets the scale of the scaled times.
NOMINAL_S = 3.0e-3
WINDOW_S = 0.5  # probes within this distance of an op count for it
BUDGET = 0.05  # probe time per gap, as a share of the preceding op's time
MAX_PROBES = 10
INTERVAL_S = 0.1  # probe period inside an op
PROBES_AROUND_SETUP = 10  # before and after a set-up in a fresh process


class Speed:
    """Runs the probe and turns probe times into a scale factor per op."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = []
        for n in (4, 8, 16):
            g = rng.standard_normal((n, n))
            self.mats.append(g @ g.T / n + np.eye(n))
        self.samples: list[tuple[float, float]] = []  # (time taken, probe seconds)
        self._in_op: list[tuple[float, float]] = []  # (start, end) of probes inside the op
        self._armed = False

    def probe(self) -> float:
        t0 = perf_counter()
        acc = 0.0
        for _ in range(24):
            for a in self.mats:
                c = np.linalg.cholesky(a)
                s = scipy.linalg.cho_solve((c, True), a, check_finite=False)
                acc += float(np.linalg.eigvalsh(0.5 * (s + s.T))[-1]) + float(np.sum(a @ s))
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))
        return acc

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            t0 = perf_counter()
            self.probe()
            self._in_op.append((t0, perf_counter()))

    def start_op(self) -> None:
        """Probe every INTERVAL_S until end_op."""
        self._in_op.clear()
        self._armed = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def end_op(self, start: float, end: float) -> float:
        """Stop probing; the seconds of [start, end] that probes took."""
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        return sum(max(0.0, min(e, end) - max(s, start)) for s, e in self._in_op)

    def gap(self, previous_op_s: float) -> None:
        """Probe between two ops, for about BUDGET of the previous op's time."""
        n = min(MAX_PROBES, max(1, round(BUDGET * previous_op_s / NOMINAL_S)))
        for _ in range(n):
            self.probe()

    def warm_up(self) -> None:
        """Run the probe a few times unrecorded, as a fresh process must."""
        for _ in range(3):
            self.probe()
        self.samples.clear()

    def overall(self) -> float:
        """NOMINAL_S over the median of every probe recorded."""
        return NOMINAL_S / statistics.median(s for _, s in self.samples)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median probe time within WINDOW_S of [start, end].

        The gap after every op holds at least one probe, so the window is never
        empty.
        """
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return NOMINAL_S / statistics.median(near)
