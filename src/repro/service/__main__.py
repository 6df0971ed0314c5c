"""``python -m repro.service`` — run a schedule service in the foreground.

Examples::

    python -m repro.service --socket /tmp/repro/service.sock --state-dir /tmp/repro
    python -m repro.service --host 127.0.0.1 --port 7341
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import sys

from .server import ScheduleService


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.service", description=__doc__)
    ap.add_argument("--socket", default=None, help="Unix socket path to listen on")
    ap.add_argument("--host", default=None, help="TCP host to listen on")
    ap.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    ap.add_argument("--state-dir", default=None, help="shared on-disk state root")
    ap.add_argument("--scheduling-workers", type=int, default=4)
    ap.add_argument("--timing-workers", type=int, default=2)
    ap.add_argument("--quiet", action="store_true", help="suppress per-request logs")
    args = ap.parse_args(argv)

    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
        stream=sys.stderr,
    )

    # this process is the service's own: one request's scheduling runs on a
    # pool thread while the event loop answers the others, and the loop gets
    # the GIL back only when the interpreter's switch interval expires.  The
    # default 5 ms is a latency floor for every reply that waits on it.
    sys.setswitchinterval(0.0005)

    svc = ScheduleService(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        scheduling_workers=args.scheduling_workers,
        timing_workers=args.timing_workers,
    )

    async def run():
        await svc.start()
        # the one line a launcher scrapes to learn the bound address
        print(f"repro-service listening on {svc.address()}", flush=True)
        await svc.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
