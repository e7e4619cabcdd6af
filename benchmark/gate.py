"""The benchmark's correctness gate over the records a sweep writes.

A sweep passes when every record is error-free with ``1 <= n_calls <= n_max``
and a finite ``p_min`` in [0, 1], and when the records file's SHA-256 equals
the reference: the pinned hash for this workload and seed when
``pinned.json`` has one for this platform, else the first sweep of the same
invocation. A hash mismatch fails every run of the sweep, since it cannot
say which record changed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from machine import platform_fingerprint

PIN_PATH = Path(__file__).resolve().parent / "pinned.json"


def bad_records(records, n_max: int) -> int:
    """Number of records that carry an error or break a record invariant."""
    bad = 0
    for rec in records:
        ok = (
            rec.error is None
            and isinstance(rec.n_calls, int)
            and 1 <= rec.n_calls <= n_max
            and isinstance(rec.p_min, float)
            and math.isfinite(rec.p_min)
            and 0.0 <= rec.p_min <= 1.0
        )
        bad += not ok
    return bad


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tamper(data: bytes) -> bytes:
    """``data`` with one byte added inside the first record: same JSON, new hash."""
    return data.replace(b'"seed":', b'"seed": ', 1)


def pin_key(workload: str, tiny: bool) -> str:
    return workload + ("/tiny" if tiny else "")


def pinned_hash(workload: str, seed: int, tiny: bool) -> str | None:
    """Pinned records hash, or None when unpinned or pinned on another platform.

    Records are reproducible within one build and platform only, so a pin
    taken elsewhere is not applied.
    """
    pins = json.loads(PIN_PATH.read_text(encoding="utf-8"))
    if pins["platform"] != platform_fingerprint():
        return None
    return pins["records_sha256"].get(pin_key(workload, tiny), {}).get(str(seed))


class Ledger:
    """Runs attempted and failed across the sweeps of one invocation."""

    def __init__(self, n_max: int, pinned: str | None) -> None:
        self.n_max = n_max
        self.reference = pinned
        self.attempted = 0
        self.failed = 0
        self.mismatched_sweeps = 0

    def judge(self, records, data: bytes, expected: int) -> str:
        """Count one sweep of ``expected`` runs; return its records hash.

        Runs missing from ``records`` count as failed.
        """
        digest = sha256(data)
        if self.reference is None:
            self.reference = digest
        self.attempted += expected
        if digest != self.reference:
            self.mismatched_sweeps += 1
            self.failed += expected
        else:
            self.failed += bad_records(records, self.n_max) + max(expected - len(records), 0)
        return digest
