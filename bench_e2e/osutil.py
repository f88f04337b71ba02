"""Process accounting and leak checks, read from ``/proc`` (Linux)."""

from __future__ import annotations

import os
import resource
import time

_TICK = os.sysconf("SC_CLK_TCK")
SHM_DIR = "/dev/shm"


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    # the command name (field 2) may hold spaces; fields resume after ')'
    return text[text.rindex(")") + 2:].split()


def _all_pids() -> list[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def descendants(root: int) -> list[int]:
    """Live descendants of ``root`` (not ``root`` itself)."""
    children: dict[int, list[int]] = {}
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(pid)  # field 4: ppid
    out, frontier = [], [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        out.extend(kids)
        frontier.extend(kids)
    return out


def process_group(pgid: int) -> list[int]:
    """Live processes whose process group is ``pgid``."""
    found = []
    for pid in _all_pids():
        fields = _stat_fields(pid)
        if fields is not None and int(fields[2]) == pgid:  # field 5: pgrp
            found.append(pid)
    return found


def cpu_seconds(include_self: bool) -> float:
    """CPU (user+sys) of the system under test so far.

    Reaped children are in ``RUSAGE_CHILDREN``; live descendants are read
    from ``/proc`` together with what *they* have reaped.  A child moving
    from live to reaped moves between the two terms, so differences of this
    number over a round count every process exactly once.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = reaped.ru_utime + reaped.ru_stime
    if include_self:
        total += time.process_time()
    for pid in descendants(os.getpid()):
        fields = _stat_fields(pid)
        if fields is not None:
            # fields 14-17: utime, stime, cutime, cstime (clock ticks)
            total += sum(int(f) for f in fields[11:15]) / _TICK
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its (reaped) children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports KiB


def shm_segments() -> dict[str, int]:
    """Name -> bytes of every segment in ``/dev/shm``."""
    out = {}
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return out
    for name in names:
        try:
            out[name] = os.stat(os.path.join(SHM_DIR, name)).st_size
        except OSError:
            pass
    return out


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(path)
        for name in names
    )
