"""The server the ``serve_*`` workloads talk to, as its own process.

Started by ``bench_e2e.workloads.serve`` so the load generator never shares
an interpreter lock with the system under test.  Prints the listening line
``run_server`` announces (it carries the ephemeral port) and serves until
SIGTERM, which drains and exits 0.
"""

from __future__ import annotations

import argparse

from bench_e2e import add_src_to_path
from bench_e2e.spec import DELTA


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rows", type=int, required=True)
    args = parser.parse_args()
    add_src_to_path()
    import repro
    from repro.serve import QueryService, run_server

    session = repro.connect(delta=DELTA)
    session.attach("flights", repro.SourceSpec("flights", rows=args.rows, seed=0))
    service = QueryService(session, sessions=2, default_seed=0)
    run_server(
        service, host="127.0.0.1", port=0,
        announce=lambda line: print(line, flush=True),
    )


if __name__ == "__main__":
    main()
