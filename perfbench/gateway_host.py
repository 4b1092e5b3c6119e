"""Run one :class:`repro.serving.Gateway` in its own process.

The benchmark's fleet workloads start this script as a child process so
that the gateway, its workers and the load generator never share an
interpreter lock.  It prints one ready line with the gateway's port and
the pids of the gateway and its workers, then serves until its standard
input closes or receives a line, and stops the fleet before exiting::

    PYTHONPATH=src python3 perfbench/gateway_host.py --l2-dir DIR --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--l2-dir", required=True)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    from repro.serving import Gateway

    gateway = Gateway(n_workers=args.workers, l2_dir=args.l2_dir)
    gateway.start()
    try:
        print(json.dumps({
            "port": gateway.port,
            "pid": os.getpid(),
            "worker_pids": gateway.worker_pids(),
        }), flush=True)
        sys.stdin.readline()
    finally:
        gateway.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
