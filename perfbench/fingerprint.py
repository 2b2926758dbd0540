"""Decision fingerprint of one experiment and the gate that checks it.

A fingerprint holds
- the SHA-256 of the exact bytes of ``states``;
- the SHA-256 of every attacker decision: per attacked step the targets and
  the bytes of ``u_a``, plus each DoS event's plan and severed links;
- ``separation_before`` and ``separation_after`` per attacked step, compared
  within SEP_RTOL (relative, floored at 1 m) so that re-associated float
  sums pass while a changed target or injection does not;
- the SHA-256 of every emitted artifact. ``attack.csv`` is hashed without
  its two separation columns, which the tolerance check above covers.
"""
from __future__ import annotations

import hashlib
import json
import os

SEP_RTOL = 1e-9
#: separations are stored with 13 significant digits, far inside SEP_RTOL
SEP_DIGITS = 13
ATTACK_CSV = "attack.csv"
_SEPARATION_COLUMNS = (7, 8)


def _sha(data: bytes):
    return hashlib.sha256(data).hexdigest()


def _decision_bytes(record):
    parts = []
    for k, d in enumerate(record.decisions):
        if d is not None:
            parts.append(f"{k}:{d.targets[0]},{d.targets[1]}:".encode())
            parts.append(d.u_a.tobytes())
    for e in record.dos_events:
        parts.append(f"dos:{e.k}:{e.planned_node}:{e.planned_edge}:"
                     f"{sorted(e.removed_edges)}".encode())
    return b"".join(parts)


def _artifact_bytes(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) != ATTACK_CSV:
        return data
    rows = []
    for line in data.decode().splitlines():
        cells = line.split(",")
        rows.append(",".join(c for i, c in enumerate(cells)
                             if i not in _SEPARATION_COLUMNS))
    return "\n".join(rows).encode()


def of(record, emitted_paths):
    """Fingerprint of a run record and the artifacts `emit` wrote for it."""
    decisions = [d for d in record.decisions if d is not None]
    return {
        "states_sha256": _sha(record.states.tobytes()),
        "decisions_sha256": _sha(_decision_bytes(record)),
        "attacked_steps": len(decisions),
        "separation_before": [float(f"{d.separation_before:.{SEP_DIGITS}g}")
                              for d in decisions],
        "separation_after": [float(f"{d.separation_after:.{SEP_DIGITS}g}")
                             for d in decisions],
        "artifacts_sha256": {os.path.basename(p): _sha(_artifact_bytes(p))
                             for p in sorted(emitted_paths)},
    }


def _close(a, b):
    return abs(a - b) <= SEP_RTOL * max(1.0, abs(b))


def check(actual, reference):
    """Mismatches of `actual` against `reference`; empty when the gate passes."""
    out = []
    for key in ("states_sha256", "decisions_sha256", "attacked_steps"):
        if actual[key] != reference[key]:
            out.append(f"{key} differs")
    for key in ("separation_before", "separation_after"):
        got, want = actual[key], reference[key]
        if len(got) != len(want):
            out.append(f"{key}: {len(got)} values, reference has {len(want)}")
            continue
        bad = [i for i, (a, b) in enumerate(zip(got, want)) if not _close(a, b)]
        if bad:
            out.append(f"{key} outside tolerance at {len(bad)} steps "
                       f"(first decision index {bad[0]})")
    # artifacts a later version adds are not checked; changed or missing ones are
    for name, digest in reference["artifacts_sha256"].items():
        if actual["artifacts_sha256"].get(name) != digest:
            out.append(f"artifact {name} differs")
    return out


def reference_path(directory, workload_name):
    return os.path.join(directory, f"{workload_name}.json")


def load_references(directory, workload_name):
    """Stored fingerprints of a workload, keyed by scenario seed."""
    with open(reference_path(directory, workload_name), encoding="utf-8") as fh:
        stored = json.load(fh)
    return {int(seed): fp for seed, fp in stored["scenarios"].items()}
