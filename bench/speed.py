"""Machine-speed probe that puts timings on a steady scale.

On a shared host the same work can run up to twice as slowly for tens of
seconds at a time while other tenants load the machine; CPU time tracks
wall time, so the slowdown is contention for the core and its caches, not
descheduling. While a workload runs, a timer runs a fixed probe kernel at
regular intervals, and every measured interval is divided by how slowly
the kernel ran around it, relative to its time on the reference machine.

How much contention slows code depends on what the code does, so a
generic kernel over- or under-corrects. The kernel is therefore the same
kind of work as the workload, run through probe_tfqkd, a frozen copy of
the tfqkd modules at the commit that defined the benchmark: a change to
src/tfqkd changes the measured work but never the probe. A normalized time
reads as the time the work would take on the reference machine (2-vCPU
Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, OpenBLAS on one thread).
"""

from __future__ import annotations

import signal
import statistics
import time
from pathlib import Path

import numpy as np

from probe_tfqkd.channel import (
    ChannelParams,
    ProtocolParams,
    expected_observations,
    sample_observations,
)
from probe_tfqkd.constraints import build_lp, dump_lp, make_budget
from probe_tfqkd.keyrate import analyze
from probe_tfqkd.simplex import load_lp

# Median kernel time per workload on the reference machine, no other load
# in the process.
REFERENCE_KERNEL_S = {
    "rate_curve": 0.0115,
    "finite_key_mc": 0.0095,
    "lp_export": 0.0070,
}

_CHANNEL = ChannelParams(e_m=0.03, p_d=1e-8, xi=0.2, eta_d=0.3, f_ec=1.1)
_BUDGETS = {
    m: make_budget(n_phases=m, eps_cor=1e-10, eps_pa=1.6566e-10, eps_total_pe=4e-20)
    for m in (8, 16)
}


def _protocol(n_total: float, n_phases: int, mu=0.04, nu=0.18, p_mu=0.85, p_nu=0.08):
    return ProtocolParams.make(mu, nu, p_mu, p_nu, n_phases, int(n_total))


class Kernel:
    """A few fixed items shaped like one workload's items: sampled
    analyses, expected-mode candidate evaluations near the optimum, or LP
    exports through a file in `workdir`."""

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.path = workdir / "probe_lp.txt"
        if workload == "finite_key_mc":
            self.items = [
                (_protocol(1e12, 8), 100.0, 1), (_protocol(1e14, 8), 250.0, 2),
                (_protocol(1e12, 8), 400.0, 3), (_protocol(1e14, 16), 150.0, 4),
            ]
        elif workload == "rate_curve":
            candidates = [(0.02, 0.1, 0.8, 0.1), (0.05, 0.2, 0.7, 0.2), (0.01, 0.05, 0.9, 0.05)]
            self.items = [
                (_protocol(n, 8, *c), l_km, 0)
                for c, n, l_km in zip(candidates * 2, (1e12, 1e14) * 3, (240.0,) * 3 + (280.0,) * 3)
            ]
        elif workload == "lp_export":
            self.items = [
                (_protocol(1e12, 8), 50.0, None), (_protocol(1e14, 8), 250.0, 1),
                (_protocol(1e12, 16), 410.0, 2), (_protocol(1e14, 16), 130.0, None),
            ]
        else:
            raise ValueError(f"no probe kernel for workload {workload!r}")
        self.reference = REFERENCE_KERNEL_S[workload]
        self()  # first call warms caches; not a sample

    def __call__(self) -> None:
        for protocol, l_km, seed in self.items:
            budget = _BUDGETS[protocol.n_phases]
            if self.workload == "finite_key_mc":
                analyze(protocol, _CHANNEL, l_km, budget, mode="sampled", seed=seed,
                        detector_in_eta=False)
            elif self.workload == "rate_curve":
                analyze(protocol, _CHANNEL, l_km, budget, detector_in_eta=False)
            else:
                if seed is None:
                    counts = expected_observations(protocol, _CHANNEL, l_km, detector_in_eta=False)
                else:
                    counts = sample_observations(protocol, _CHANNEL, l_km, seed, detector_in_eta=False)
                dump_lp(build_lp(protocol, counts, budget), self.path)
                load_lp(self.path)


def kernel_seconds(kernel: Kernel, repeats: int) -> float:
    """Median wall time of `repeats` back-to-back kernel calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Context manager that samples machine speed during a workload.

    The timer fires every `interval` seconds. With defer=False the kernel
    runs inside the signal handler, in the middle of whatever is running
    (for work items that last seconds). With defer=True the handler only
    marks a sample as due and between_items() takes it, so short items are
    never interrupted and their latencies stay clean.

    clock() is a work clock: wall time minus time spent in the probe.
    normalize() rescales a work-clock interval to reference seconds using
    the probe samples taken around it.
    """

    def __init__(self, kernel: Kernel, interval: float = 0.2, smooth: int = 5, defer: bool = False):
        self.kernel = kernel
        self.interval = interval
        self.smooth = smooth
        self.defer = defer
        self.paused = 0.0
        self._due = False
        self._at: list[float] = []
        self._took: list[float] = []
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self._at.append(t0)
        self._took.append(t1 - t0)
        self.paused += t1 - t0

    def _tick(self, signum, frame):
        if self.defer:
            self._due = True
        else:
            self.sample()

    def between_items(self) -> None:
        if self._due:
            self._due = False
            self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # Samples after the last item anchor its normalization.
        for _ in range(self.smooth // 2 + 1):
            self.sample()

    def clock(self) -> tuple[float, float]:
        """(wall time, work-clock time), read consistently even if the
        timer fires in between."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now, now - paused

    def normalize(self, spans: list[tuple[float, float, float]]) -> list[float]:
        """Reference seconds for each (wall start, wall end, work seconds)
        span: the work divided by the machine's slowness around it, taken
        from the probe samples smoothed by a running median."""
        at = np.asarray(self._at)
        took = np.asarray(self._took)
        half = self.smooth // 2
        slow = np.array([
            np.median(took[max(0, i - half): i + half + 1]) for i in range(len(took))
        ]) / self.kernel.reference
        out = []
        for start, end, work in spans:
            inside = (at >= start) & (at <= end)
            if inside.any():
                out.append(work * float(np.mean(1.0 / slow[inside])))
            else:
                out.append(work / float(np.interp(0.5 * (start + end), at, slow)))
        return out

    @property
    def samples(self) -> int:
        return len(self._took)
