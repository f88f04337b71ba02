"""ROUNDROBIN pinned to the outputs of its former private batched loop.

ROUNDROBIN used to run its own executor; it is now ``RoundRobinRule`` on the
one IFOCUS executor.  These values were recorded from the old loop on four
instances (a close pair, an exhaustion obstacle, ROUNDROBIN-R and sampling
with replacement); the rule must reproduce its samples, rounds, finalization
order, half-widths and estimates bit for bit.  The one documented change on
these instances: an exhausted group's ``finalized_round`` is now the round
it was read in full (the old loop wrote the final round for every group).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.roundrobin import run_roundrobin
from repro.engines.memory import InMemoryEngine
from tests.conftest import make_materialized_population

GOLDEN = {
    "close-pair": dict(
        population=dict(means=[10.0, 42.0, 45.0, 70.0, 90.0], sizes=5000, seed=11),
        run=dict(seed=3),
        samples=[4182] * 5,
        rounds=4182,
        order=[0, 1, 2, 3, 4],
        half_widths=[1.4020680739332703] * 5,
        finalized=[4182] * 5,
        estimates="56330202f7052440e2d252c3db0d4540901d65500a754640"
        "c4a557a8407b514075f298cfa27d5640",
    ),
    "exhaustion-obstacle": dict(
        population=dict(
            means=[50.0, 50.8, 90.0], sizes=[80, 50_000, 50_000], spread=6.0, seed=9
        ),
        run=dict(seed=10),
        samples=[80, 15881, 15881],
        rounds=15881,
        order=[0, 1, 2],
        half_widths=[0.0, 1.4528016227425895, 1.4528016227425895],
        finalized=[80, 15881, 15881],  # the old loop wrote 15881 for group 0
        estimates="23f0df3afbb3484020fa7d20f26d49408fd7ee5c18755640",
    ),
    "resolution": dict(
        population=dict(means=[40.0, 40.5, 80.0], sizes=200_000, seed=4),
        run=dict(seed=5, resolution=4.0),
        samples=[40021] * 3,
        rounds=40021,
        order=[0, 1, 2],
        half_widths=[0.9999931663021602] * 3,
        finalized=[40021] * 3,
        estimates="88bb95b7270644405bdd5960a03c4440d905680147fd5340",
    ),
    "with-replacement": dict(
        population=dict(means=[20.0, 40.0, 60.0, 80.0], sizes=3000, seed=7),
        run=dict(seed=13, without_replacement=False),
        samples=[466] * 4,
        rounds=466,
        order=[0, 1, 2, 3],
        half_widths=[9.937512132558107] * 4,
        finalized=[466] * 4,
        estimates="2af290e94fc1334046bc63c7e7e04340293fe0fb"
        "9b2e4e405df41aa8a90f5440",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_matches_the_former_loop(name):
    case = GOLDEN[name]
    pop = make_materialized_population(**case["population"])
    res = run_roundrobin(InMemoryEngine(pop), delta=0.05, **case["run"])
    assert res.samples_per_group.tolist() == case["samples"]
    assert res.rounds == case["rounds"]
    assert res.inactive_order == case["order"]
    assert [g.half_width for g in res.groups] == case["half_widths"]
    assert [g.finalized_round for g in res.groups] == case["finalized"]
    assert res.estimates.tobytes() == bytes.fromhex(case["estimates"])
    assert np.array_equal(res.stats.samples_per_group, res.samples_per_group)
