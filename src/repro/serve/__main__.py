"""``python -m repro.serve`` / ``spl serve`` — run the server.

Examples::

    spl serve --port 7462 --warm fft:64 fft:1024
    spl serve --wisdom wisdom.json --warm fft:64
    spl serve --port 7462 --workers 4 --warm fft:64

``--warm`` prebuilds routes at boot; with ``--wisdom`` pointing at a
store produced by ``spl-compile --search --wisdom ...`` the warmed
plans replay the search winners (hot boot) instead of the default
factorization.

``--workers N`` (N >= 2) runs a supervised fleet: N forked worker
processes share the port via ``SO_REUSEPORT``, crashed workers are
restarted under backoff and a restart budget, SIGTERM drains the
fleet gracefully and SIGHUP performs a rolling restart.  See
``docs/serving.md`` ("Running a fleet").  In every mode SIGTERM and
SIGINT trigger a graceful drain: stop accepting, answer everything
already admitted, then exit.
"""

from __future__ import annotations

import argparse
import sys

from repro.serve.errors import BadRequest
from repro.serve.plans import PLAN_BACKENDS, PlanKey
from repro.serve.supervisor import (
    HEARTBEAT_INTERVAL_S,
    BackoffPolicy,
    RestartBudget,
    ServeConfig,
    Supervisor,
    fork_supported,
    run_worker,
)


def _bounded(kind, low, *, strict=False, high=None):
    """An argparse type: ``kind(text)``, refused below ``low`` (at it
    too when ``strict``, and NaN always) and above ``high`` when given,
    so a value the server cannot run with exits 2 with a usage message
    before anything forks."""

    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be <= {high}, got {text}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spl serve",
        description="Serve SPL transforms over the batch dispatcher.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_bounded(int, 0, high=65535),
                        default=7462,
                        help="0 picks an ephemeral port")
    parser.add_argument("--warm", nargs="*", default=[],
                        metavar="TRANSFORM:N[:DTYPE]",
                        help="routes to prebuild before accepting "
                             "connections, e.g. fft:64 wht:256")
    parser.add_argument("--wisdom", default=None, metavar="PATH",
                        help="wisdom store to boot plans from")
    parser.add_argument("--pack", default=None, metavar="PATH",
                        help="read-only wisdom pack (spl pack build) "
                             "to boot plans from; preferred over "
                             "--wisdom, degrades gracefully when the "
                             "pack is corrupt or foreign")
    parser.add_argument("--prefer", default=None,
                        choices=list(PLAN_BACKENDS),
                        help="backend chain head (default: c, which "
                             "falls through to numpy on a host with "
                             "no compiler and no cached build)")
    parser.add_argument("--max-batch", type=_bounded(int, 1), default=64)
    parser.add_argument("--queue-limit", type=_bounded(int, 1), default=256,
                        help="per-plan in-flight bound (overload "
                             "rejections beyond it)")
    fleet = parser.add_argument_group("fleet (supervised serving)")
    fleet.add_argument("--workers", type=int, default=1,
                       help="worker processes; >= 2 runs the "
                            "supervisor with SO_REUSEPORT workers "
                            "(default: 1, single process)")
    fleet.add_argument("--drain-grace-s", type=_bounded(float, 0.0),
                       default=30.0,
                       help="seconds a draining worker may spend "
                            "finishing admitted requests")
    fleet.add_argument("--restart-budget", type=_bounded(int, 1), default=6,
                       help="max worker restarts per window before "
                            "the supervisor degrades the fleet")
    fleet.add_argument("--restart-window-s", default=30.0,
                       type=_bounded(float, 0.0, strict=True),
                       help="sliding window for --restart-budget")
    fleet.add_argument("--heartbeat-timeout-s", default=5.0,
                       type=_bounded(float, HEARTBEAT_INTERVAL_S, strict=True),
                       help="silent-worker threshold before a wedge "
                            "kill")
    fleet.add_argument("--port-file", default=None, metavar="PATH",
                       help="write 'host:port' here once listening "
                            "(useful with --port 0)")
    fleet.add_argument("--status-file", default=None, metavar="PATH",
                       help="atomically rewrite this file with the "
                            "supervisor's status() JSON on every "
                            "fleet state change")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        print("spl serve: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        warm = tuple(PlanKey.parse(spec) for spec in args.warm)
    except BadRequest as exc:
        parser.error(f"argument --warm: {exc}")
    config = ServeConfig(
        host=args.host,
        port=args.port,
        warm=warm,
        wisdom_path=args.wisdom,
        pack_path=args.pack,
        prefer=args.prefer,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        drain_grace_s=args.drain_grace_s,
    )
    try:
        if args.workers == 1:
            return run_worker(config, port_file=args.port_file)
        if not fork_supported():
            print("spl serve: --workers needs fork and SO_REUSEPORT; "
                  "falling back to a single process",
                  file=sys.stderr)
            return run_worker(config, port_file=args.port_file)
        supervisor = Supervisor(
            config,
            workers=args.workers,
            heartbeat_timeout=args.heartbeat_timeout_s,
            backoff=BackoffPolicy(),
            budget=RestartBudget(budget=args.restart_budget,
                                 window_s=args.restart_window_s),
            port_file=args.port_file,
            status_file=args.status_file,
        )
        return supervisor.run()
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
