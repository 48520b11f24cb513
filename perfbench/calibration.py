"""Calibration kernel: fixed numpy work timed beside every op to factor out host speed.

The benchmark shares a small virtual machine with other tenants, whose load
slows this process by up to about 2x for minutes at a time. A kernel pass
runs between every two ops, so op and kernel see the same host. Each op time
is scaled by ``cal_ref_s`` over the mean of the passes just before and just
after it, where ``cal_ref_s`` is the kernel's time on an idle host. On an
idle host the scaled time is the wall time; on a busy one the two slow down
together and the ratio cancels most of it.

The kernel mimics the instruction mix of the ops: an RK4 loop at batch 10,
dimension 7, whose time is numpy per-call overhead like the small-batch ops,
and an einsum loop at batch 128, dimension 43, like the Hebbian ensemble.
It does not touch the package under test, so a change to the package moves
the op times and leaves the kernel alone. Only numpy is imported here.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


class Calibration:
    def __init__(self, small_steps: int, big_steps: int):
        rng = np.random.default_rng(0)
        self.small_steps, self.big_steps = small_steps, big_steps
        self.a_small = rng.standard_normal((7, 7)) * 0.1
        self.y_small = rng.standard_normal((10, 7))
        self.a_big = rng.standard_normal((43, 43)) * 0.05
        self.y_big = rng.standard_normal((128, 43))

    def _small(self):
        a, h = self.a_small, 1e-3

        def f(y):
            return -y + np.tanh(y @ a)

        y = self.y_small.copy()
        for _ in range(self.small_steps):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return y

    def _big(self):
        z = self.y_big.copy()
        for _ in range(self.big_steps):
            z = z + 1e-3 * (np.einsum("bi,ij->bj", z, self.a_big) - np.tanh(z))
        return z

    def run(self) -> float:
        """Seconds for one pass of the kernel."""
        t0 = perf_counter()
        self._small()
        self._big()
        return perf_counter() - t0
