"""What every workload shares: the op loop, verification, layer probes."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from bench_e2e import oracle
from bench_e2e.trace import Tracer

#: Warm-up round index: keeps warm-up seeds apart from every timed round's.
WARMUP = -1


@dataclass
class Round:
    """One replay of the op sequence."""

    latencies: list[float]  # seconds, op order
    wall: float  # seconds, first op start -> last op end
    answers: list  # per op: whatever verify() needs, or the exception raised


@dataclass
class Verdict:
    """Off-the-clock verification of one round's answers."""

    failed: int = 0
    misordered: int = 0
    samples: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(note)

    def absorb(self, other: "Verdict") -> None:
        self.failed += other.failed
        self.misordered += other.misordered
        self.samples += other.samples
        self.notes.extend(other.notes[: 10 - len(self.notes)])


def closed_loop(n: int, op, tracer: Tracer) -> Round:
    """One client, next op only after the previous one's answer."""
    latencies, answers = [0.0] * n, [None] * n
    start = time.perf_counter()
    for i in range(n):
        t = time.perf_counter()
        try:
            with tracer.span("op", op=i):
                answers[i] = op(i)
        except Exception as exc:  # a failed op is data, not a crash
            answers[i] = exc
        latencies[i] = time.perf_counter() - t
    return Round(latencies, time.perf_counter() - start, answers)


def timed(tracer: Tracer, name: str, fn, reps: int = 5):
    """Span ``fn()`` ``reps`` times under ``name``; returns the last value."""
    out = None
    for _ in range(reps):
        with tracer.span(name):
            out = fn()
    return out


class Workload:
    """One named workload.  Subclasses fill in the five hooks below.

    Args:
        seed: the benchmark seed every input derives from.
        n_ops: ops per round.
        scale: row-count divisor (1 for real runs, >1 for ``--quick``).
        tmp: a private scratch directory inside the checkout.
    """

    name = ""
    #: False when the system under test runs in a child process only, so the
    #: load generator's own CPU is not the system's.
    in_process = True

    def __init__(self, seed: int, n_ops: int, scale: int, tmp: str) -> None:
        self.seed = seed
        self.n_ops = n_ops
        self.scale = scale
        self.tmp = tmp
        self.rows = 0
        self._truth: dict[str, float] | None = None
        self._digests: dict = {}

    @property
    def rows_per_op(self) -> int:
        """Rows one op's query ranges over (the base of the sampled share)."""
        return self.rows

    def op_seed(self, r: int, i: int) -> int:
        """Query seed of op ``i``; the same in every round unless overridden."""
        return 1_000_003 * (self.seed + 1) + i

    # -- hooks ---------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def run_round(self, r: int, tracer: Tracer) -> Round:
        raise NotImplementedError

    def mark_timed_region(self) -> None:
        """Called right before the first timed round (counter baselines)."""

    def truth(self) -> dict[str, float]:
        """Exact group means of the queried table (full scan, off the clock)."""
        raise NotImplementedError

    def probe(self, tracer: Tracer, verdict: Verdict) -> dict[str, float]:
        """Traced run only: span the layer calls (a span called ``x.y`` feeds
        the per-layer metric ``x.y_ms`` or ``x.y_s``) and return the per-layer
        metrics that are not a span time."""
        return {}

    # -- verification ----------------------------------------------------------

    def view(self, answer) -> dict:
        """Answer -> ``oracle.dict_view`` form."""
        return oracle.result_view(answer)

    def verify(self, r: int, answers: list) -> Verdict:
        """Ordering vs the exact means; same op, same seed => same digest."""
        verdict = Verdict()
        if self._truth is None:
            self._truth = self.truth()
        for i, answer in enumerate(answers):
            if isinstance(answer, Exception):
                verdict.fail(f"op {i} raised {type(answer).__name__}: {answer}")
                continue
            self.check_view(verdict, self.view(answer), self._truth, self.op_seed(r, i))
        return verdict

    def check_view(self, verdict: Verdict, view: dict, truth: dict, seed: int) -> None:
        """One answer: caveat-free, ordered like the truth, same as last round."""
        verdict.samples += view["samples"]
        if view["caveats"]:
            verdict.fail(f"seed {seed} carries caveats: {view['caveats']}")
        if oracle.misordered(view["estimates"], truth):
            verdict.misordered += 1
        if self._digests.setdefault(seed, view["digest"]) != view["digest"]:
            verdict.fail(f"seed {seed} changed its answer between rounds")

    def expect_digest(self, verdict: Verdict, key: int, digest: str, what: str) -> None:
        """Bit-identity against a reference computed another way."""
        if self._digests.get(key) != digest:
            verdict.fail(f"seed {key}: answer differs from {what}")
