"""Result-cache tests: keying, single-flight, LRU, and invalidation.

The cache-coherence satellite lives here: ``Session.invalidate(name)`` and
re-registering a source under the same name must both evict the server's
cached Results for that table - including the invalidate-during-execution
race, which the generation counter closes.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import SourceSpec, connect
from repro.serve.cache import ResultCache
from repro.serve.wire import canonical_json
from repro.session.result import Result


@pytest.fixture(scope="module")
def completed():
    """One real completed (spec, Result, payload) triple to populate caches."""
    with connect(delta=0.1, seed=0) as session:
        session.attach("flights", SourceSpec("flights", rows=10_000, seed=0))
        spec = session.sql(
            "SELECT carrier, AVG(arrival_delay) FROM flights GROUP BY carrier"
        ).spec()
        result = session.execute(spec, seed=0)
    return spec, result, canonical_json(result.to_dict())


def key_of(spec, seed=0):
    return (spec.canonical_key(), repr(seed))


class TestStoreAndLookup:
    def test_miss_then_flight_then_hit(self, completed):
        spec, result, payload = completed

        async def main():
            cache = ResultCache()
            key = key_of(spec)
            assert cache.get(key) is None
            flight = cache.begin_flight(key, spec.table)
            assert cache.flight(key) is flight
            assert cache.complete_flight(flight, result, payload) is True
            assert cache.flight(key) is None
            got_result, got_payload = cache.get(key)
            assert got_payload == payload  # bit-identical bytes for every reader
            assert got_result is result
            assert cache.stats.hits == 1 and cache.stats.misses == 1
            assert len(cache) == 1

        asyncio.run(main())

    def test_key_includes_seed(self, completed):
        spec, result, payload = completed

        async def main():
            cache = ResultCache()
            flight = cache.begin_flight(key_of(spec, 0), spec.table)
            cache.complete_flight(flight, result, payload)
            assert cache.get(key_of(spec, 1)) is None

        asyncio.run(main())

    def test_deadline_expired_results_are_never_cached(self, completed):
        spec, result, payload = completed
        # deadline_exceeded is derived from the aggregates' run params;
        # fabricate an expired result by flipping it on the wire form.
        wire = json.loads(payload)
        for agg in wire["aggregates"].values():
            agg["raw"]["params"]["deadline_exceeded"] = True
        expired = Result.from_dict(wire)
        assert expired.deadline_exceeded

        async def main():
            cache = ResultCache()
            key = key_of(spec)
            flight = cache.begin_flight(key, spec.table)
            stored = cache.complete_flight(flight, expired, canonical_json(wire))
            assert stored is False
            assert cache.get(key) is None
            assert cache.stats.uncacheable == 1

        asyncio.run(main())

    def test_lru_eviction_beyond_capacity(self, completed):
        spec, result, payload = completed

        async def main():
            cache = ResultCache(max_entries=2)
            keys = [("k%d" % i, "0") for i in range(3)]
            for key in keys:
                flight = cache.begin_flight(key, spec.table)
                cache.complete_flight(flight, result, payload)
            assert len(cache) == 2
            assert cache.get(keys[0]) is None  # oldest evicted
            assert cache.get(keys[2]) is not None
            assert cache.stats.evicted == 1

        asyncio.run(main())


class TestSingleFlight:
    def test_followers_share_the_leader_outcome(self, completed):
        spec, result, payload = completed

        async def main():
            cache = ResultCache()
            key = key_of(spec)
            flight = cache.begin_flight(key, spec.table)
            followers = [
                asyncio.ensure_future(cache.follow(flight)) for _ in range(3)
            ]
            await asyncio.sleep(0)
            cache.complete_flight(flight, result, payload)
            outcomes = await asyncio.gather(*followers)
            assert all(p == payload for _r, p in outcomes)
            assert flight.followers == 3
            assert cache.stats.shared == 3

        asyncio.run(main())

    def test_followers_share_the_leader_failure(self, completed):
        spec, _result, _payload = completed

        async def main():
            cache = ResultCache()
            key = key_of(spec)
            flight = cache.begin_flight(key, spec.table)
            follower = asyncio.ensure_future(cache.follow(flight))
            await asyncio.sleep(0)
            boom = RuntimeError("leader died")
            cache.fail_flight(flight, boom)
            with pytest.raises(RuntimeError, match="leader died"):
                await follower
            assert cache.flight(key) is None
            assert cache.get(key) is None

        asyncio.run(main())

    def test_double_begin_flight_is_an_error(self, completed):
        spec, _result, _payload = completed

        async def main():
            cache = ResultCache()
            key = key_of(spec)
            cache.begin_flight(key, spec.table)
            with pytest.raises(RuntimeError):
                cache.begin_flight(key, spec.table)

        asyncio.run(main())


class TestInvalidation:
    def test_invalidate_table_drops_only_that_table(self, completed):
        spec, result, payload = completed

        async def main():
            cache = ResultCache()
            for table, key in (("a", ("ka", "0")), ("b", ("kb", "0"))):
                flight = cache.begin_flight(key, table)
                cache.complete_flight(flight, result, payload)
            assert cache.invalidate_table("a") == 1
            assert cache.get(("ka", "0")) is None
            assert cache.get(("kb", "0")) is not None
            assert cache.stats.invalidated == 1

        asyncio.run(main())

    def test_invalidate_during_flight_vetoes_caching(self, completed):
        spec, result, payload = completed

        async def main():
            cache = ResultCache()
            key = key_of(spec)
            flight = cache.begin_flight(key, spec.table)
            # the table changes while the query is still sampling
            cache.invalidate_table(spec.table)
            stored = cache.complete_flight(flight, result, payload)
            assert stored is False  # stale execution never enters the cache
            assert cache.get(key) is None
            # a flight begun after the invalidation caches normally
            flight2 = cache.begin_flight(key, spec.table)
            assert cache.complete_flight(flight2, result, payload) is True

        asyncio.run(main())

    def test_catalog_attach_evicts_on_invalidate_and_rebind(self, completed):
        spec, result, payload = completed

        async def main():
            session = connect(delta=0.1, seed=0)
            rows = {
                "g": np.array(["a", "b"] * 500),
                "v": np.random.default_rng(0).uniform(0, 10, 1000),
            }
            session.register("t", dict(rows))
            cache = ResultCache().attach(session.catalog)
            key = ("kt", "0")
            flight = cache.begin_flight(key, "t")
            cache.complete_flight(flight, result, payload)
            assert cache.get(key) is not None

            session.invalidate("t")
            assert cache.get(key) is None

            flight = cache.begin_flight(key, "t")
            cache.complete_flight(flight, result, payload)
            assert cache.get(key) is not None
            session.register("t", dict(rows))  # rebinding evicts too
            assert cache.get(key) is None
            session.close()

        asyncio.run(main())
