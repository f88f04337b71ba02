"""Shared stream helpers: a deterministic event table sliced into chunks."""

from __future__ import annotations

import numpy as np

from repro.catalog import IteratorSource, Schema
from repro.session import connect

#: Total rows of the canonical event stream.
N = 600


def make_data(seed: int = 7, n: int = N) -> dict:
    """The canonical stream: 3 groups, bounded values, ts = row index."""
    rng = np.random.default_rng(seed)
    return {
        "g": rng.choice(np.array(["a", "b", "c"]), n),
        "v": rng.random(n) * 50.0,
        "ts": np.arange(n, dtype=np.float64),
    }


DATA = make_data()

SCHEMA = Schema.from_arrays({k: v[:1] for k, v in DATA.items()})


def chunk_factory(chunk_rows: int = 100, order: np.ndarray | None = None):
    """A replayable factory yielding DATA in ``chunk_rows`` slices.

    ``order`` permutes/filters rows (late-arrival scenarios); default is
    arrival order == ts order.
    """
    idx = np.arange(N) if order is None else np.asarray(order)

    def chunks():
        for start in range(0, len(idx), chunk_rows):
            sel = idx[start:start + chunk_rows]
            yield {k: DATA[k][sel] for k in DATA}

    return chunks


def make_session(
    engine: str = "memory",
    shards: int = 1,
    chunk_rows: int = 100,
    order: np.ndarray | None = None,
    **connect_kwargs,
):
    """A session with the canonical stream registered as ``events``."""
    session = connect(
        engine=engine, shards=shards, seed=0, delta=0.1, **connect_kwargs
    )
    session.register(
        "events",
        IteratorSource(chunk_factory(chunk_rows, order), schema=SCHEMA),
    )
    return session


def oneshot_session(rows: dict, engine: str = "memory", shards: int = 1):
    """A session holding exactly ``rows`` as the ``events`` table."""
    session = connect(engine=engine, shards=shards, seed=0, delta=0.1)
    session.register("events", rows)
    return session


def window_rows(start: float, end: float) -> dict:
    """The canonical stream's rows with ``start <= ts < end``."""
    mask = (DATA["ts"] >= start) & (DATA["ts"] < end)
    return {k: v[mask] for k, v in DATA.items()}
