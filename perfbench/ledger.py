"""Failure accounting and the correctness checks the workloads share.

Every operation the benchmark attempts (a set-up, one classification, one
train/evaluate cycle, one classifier fit, one end-of-run verification) runs
inside :meth:`Ledger.attempt`. An exception, or a check that does not hold,
fails that operation; the record keeps the phase, the exception class and
its ``stage`` (set by the program's ``ToolkitError`` or by the check), so a
new failure shows up with the layer that raised it.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
import hashlib
import json
import os
import traceback

import numpy as np

from fishid.features import FEATURE_COUNT

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


class CheckFailed(Exception):
    """An output differs from what the benchmark expects."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


def check(ok, stage, message):
    if not ok:
        raise CheckFailed(stage, message)


class Ledger:
    """Attempted and failed operations per phase, with failure records."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.failures: list[dict] = []
        self.phase = "setup"

    @contextmanager
    def attempt(self, item):
        """Run one operation; yields a dict whose ``ok`` turns False if it
        failed. Failures are recorded, not raised."""
        phase = self.phase
        self.attempted[phase] += 1
        outcome = {"ok": True}
        try:
            yield outcome
        except Exception as exc:  # the run must continue and report it
            outcome["ok"] = False
            self.failed[phase] += 1
            self.failures.append({
                "phase": phase,
                "item": str(item),
                "error": type(exc).__name__,
                "stage": getattr(exc, "stage", None),
                "message": str(exc),
                "where": traceback.format_exc(limit=-1).strip().splitlines()[-3:],
            })

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def label_text(label) -> str:
    return f"{label.cluster}|{int(label.poison)}|{label.family}"


def labels_sha256(labels: dict) -> str:
    """Digest of ``{image name: HierarchicalLabel}``, in name order."""
    lines = [f"{name}\t{label_text(labels[name])}" for name in sorted(labels)]
    return sha256("\n".join(lines).encode())


def check_descriptor(feats, name):
    """The frozen layout promises 47 finite values in [0, 1]."""
    check(
        isinstance(feats, np.ndarray) and feats.shape == (FEATURE_COUNT,)
        and feats.dtype == np.float64,
        "descriptor", f"{name}: descriptor is not {FEATURE_COUNT} float64 values",
    )
    check(
        bool(np.all(np.isfinite(feats)) and feats.min() >= 0.0 and feats.max() <= 1.0),
        "descriptor", f"{name}: descriptor value outside [0, 1]",
    )


class Pins:
    """Digests pinned for one corpus seed; checks and, on request, records.

    ``pins.json`` holds sha256 digests of every descriptor, of the saved
    model file, of the predicted labels and of each fitted classifier, all
    for its ``seed``. Runs with another seed check determinism and
    invariants only.
    """

    def __init__(self, seed: int, record: bool):
        with open(PINS_PATH, encoding="utf-8") as fh:
            self.doc = json.load(fh)
        self.active = seed == self.doc["seed"]
        self.record = record and self.active
        self.observed: dict[str, dict] = {}

    def expect(self, section, key, digest):
        """Check ``digest`` against the pin (or record it)."""
        if not self.active:
            return
        if self.record:
            self.observed.setdefault(section, {})[key] = digest
            return
        pinned = self.doc.get(section, {}).get(key)
        check(pinned is not None, "pins", f"no pinned {section} digest for {key}")
        check(
            pinned == digest, "pins",
            f"{section} digest of {key} is {digest[:12]}, pinned {pinned[:12]}",
        )

    def save(self) -> None:
        if not self.record:
            return
        for section, values in self.observed.items():
            self.doc.setdefault(section, {}).update(values)
        with open(PINS_PATH, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
