"""Correctness oracle: exact group means, ordering check, answer digests.

Everything here runs off the clock.  The exact means come from a plain
numpy full scan of the rows the system was given - no sampling code is
involved, so a wrong ordering cannot agree with itself.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _group_sums(groups: np.ndarray, values: np.ndarray):
    """(labels, per-label sum, per-label count) of one chunk of rows."""
    groups = np.ascontiguousarray(groups)
    keys = groups
    if groups.dtype.kind == "U" and groups.dtype.itemsize in (4, 8):
        # short labels compare as integers: sorting two million strings
        # would cost more than the query being checked
        keys = groups.view(np.uint32 if groups.dtype.itemsize == 4 else np.uint64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=len(first))
    counts = np.bincount(inverse, minlength=len(first))
    return groups[first], sums, counts


def exact_means(groups: np.ndarray, values: np.ndarray) -> dict[str, float]:
    """Group label -> exact mean of its values, by one full scan."""
    labels, sums, counts = _group_sums(groups, np.asarray(values, dtype=np.float64))
    return {str(lbl): float(s / c) for lbl, s, c in zip(labels, sums, counts)}


def scan_means(catalog, table: str, group_col: str, value_col: str) -> dict[str, float]:
    """Exact means of a catalog table through the public ``scan`` protocol."""
    totals: dict[str, list[float]] = {}
    for chunk in catalog.source(table).scan(columns=(group_col, value_col)):
        labels, sums, counts = _group_sums(
            np.asarray(chunk[group_col]), np.asarray(chunk[value_col], dtype=np.float64)
        )
        for lbl, s, c in zip(labels, sums, counts):
            total = totals.setdefault(str(lbl), [0.0, 0])
            total[0] += s
            total[1] += c
    return {lbl: s / c for lbl, (s, c) in totals.items()}


def misordered(estimates: dict[str, float], truth: dict[str, float]) -> bool:
    """True when the returned ordering contradicts the truth on any pair.

    A pair contradicts when the estimates order it strictly one way and the
    exact means strictly the other; ties on either side contradict nothing.
    """
    labels = list(estimates)
    if set(labels) != set(truth):
        return True
    est = np.array([estimates[lbl] for lbl in labels])
    tru = np.array([truth[lbl] for lbl in labels])
    return bool(np.any((est[:, None] < est[None, :]) & (tru[:, None] > tru[None, :])))


def answer_digest(aggregates: dict) -> str:
    """Digest of the answer part of ``Result.to_dict()["aggregates"]``.

    Covers what the determinism contract promises to be bit-identical across
    engines' shard counts, executors, storage and windows: estimates, sample
    counts, rounds, per-group outcomes and finalization order.  Leaves out
    the spec (it names the shard count) and the simulated cost seconds.
    """
    h = hashlib.sha256()
    for key in sorted(aggregates):
        raw = aggregates[key]["raw"]
        h.update(key.encode())
        h.update(np.asarray(raw["estimates"], dtype=np.float64).tobytes())
        h.update(np.asarray(raw["samples_per_group"], dtype=np.int64).tobytes())
        h.update(np.asarray(raw["inactive_order"], dtype=np.int64).tobytes())
        h.update(str(raw["rounds"]).encode())
        for g in raw["groups"]:
            h.update(
                f"{g['name']}|{g['estimate']!r}|{g['samples']}|{g['half_width']!r}|"
                f"{g['exhausted']}|{g['finalized_round']}".encode()
            )
    return h.hexdigest()


def result_view(result) -> dict:
    """What verification needs from a ``Result``: estimates, samples, digest."""
    data = result.to_dict()
    return dict_view(data)


def dict_view(data: dict) -> dict:
    """The same view from the wire form (``Result.to_dict()`` / JSON body)."""
    first = next(iter(data["aggregates"].values()))
    return {
        "estimates": {g["label"]: g["estimate"] for g in first["groups"]},
        "samples": int(data["total_samples"]),
        "rounds": int(first["raw"]["rounds"]),
        "caveats": list(data["caveats"]),
        "digest": answer_digest(data["aggregates"]),
    }
