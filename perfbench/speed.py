"""Host speed, from a fixed reference kernel timed between operations.

The benchmark runs on shared hosts whose speed drifts by far more than a
bound can allow: on a 2-vCPU Xeon the same run (experiment, seed 1) took
5.8 s a cycle and, 25 minutes later, 9.4 s, while a pure-Python loop slowed
from ~190 to ~300 ms. Drift that slow hits every operation of a run alike,
so no median within the run removes it.

Timed end-to-end metrics are therefore reported at a reference speed:
``raw / factor()``, where ``factor()`` is the median time of the kernel in
this run over REFERENCE_MS. The kernel is the benchmark's own code and calls
nothing in fishid, so a change to the program moves a scaled time by the
same share as the raw one. Like the program it is single-threaded and
mixes the program's three kinds of work: an interpreter loop (as in
``segment.trace_contour``), many numpy calls on small vectors (as in
``mlp.train``) and passes over a whole image (as in
``preprocess.median_filter``). In a 90-s probe on a 2-vCPU Xeon, 10-s
windows of a 320x240 featurize-and-train step spread +-10% raw and +-4%
over the kernel. Raw times are printed and written to the result file next
to the factor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 50.0  # the kernel's time at the reference speed


def _kernel(img: np.ndarray, weights: np.ndarray) -> float:
    counts: dict[int, int] = {}
    for i in range(40_000):
        k = (i * 7919) % 1013
        counts[k] = counts.get(k, 0) + i
    v = weights[0]
    for _ in range(1500):
        v = v * 0.999 + 0.001 * float(np.tanh(weights @ v).sum())
    h, w = img.shape
    stack = np.stack([img[dy:h - 2 + dy, dx:w - 2 + dx] for dy in range(3) for dx in range(3)])
    return float(np.sort(stack, axis=0)[4].sum()) + len(counts) + float(v.sum())


class Probe:
    """Kernel timings (ms) of one run."""

    def __init__(self):
        self.samples_ms: list[float] = []
        rng = np.random.default_rng(0)
        self._img = rng.integers(0, 256, (300, 600), dtype=np.uint8)
        self._weights = rng.random((20, 47)) / 47
        self._expect = _kernel(self._img, self._weights)

    def sample(self, times=1):
        for _ in range(times):
            t0 = time.perf_counter()
            value = _kernel(self._img, self._weights)
            self.samples_ms.append((time.perf_counter() - t0) * 1e3)
            if value != self._expect:
                raise RuntimeError("the reference kernel gave another result")

    def factor(self) -> float:
        """How many times slower than the reference speed this run was."""
        return statistics.median(self.samples_ms) / REFERENCE_MS
