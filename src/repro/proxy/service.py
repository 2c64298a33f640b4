"""Thin HTTP front end for the streaming proxy (durable or in-memory).

:func:`serve` is optional sugar over the in-process API: a
dependency-free :mod:`http.server` endpoint exposing ``/healthz``,
``/stats`` and ``/clients/{name}/stats`` as JSON.  It works on a bare
Python.

It accepts either a :class:`repro.proxy.streaming.StreamingProxy` or a
:class:`repro.proxy.durability.DurableStreamingProxy`.  With a durable
proxy, ``/healthz`` reports ``status: ok|degraded`` with WAL lag and the
last-snapshot chronon, and ``POST /snapshot`` triggers a checkpoint
(409 on a non-durable proxy).  ``/healthz`` always answers 200 while the
process is alive — a scraper distinguishes *limping* from *dead* by the
body, not the status code — and both body shapes carry the same core
keys, so pre-durability scrapers keep working.

Registration and churn stay on the Python API, where handles and CEI
identity live; the only HTTP mutation is the snapshot trigger, which
changes no scheduling state.

:func:`main` is the operational entry point (``python -m repro.proxy
serve``): it builds a proxy — durable when ``--wal-dir`` is given,
recovering whatever the directory holds — serves it, and on SIGTERM or
SIGINT stops the clock, flushes the journal, and writes a final
snapshot before exiting.
"""

from __future__ import annotations

import argparse
import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Union
from urllib.parse import unquote

from repro.proxy.streaming import StreamingProxy

__all__ = ["ProxyService", "main", "serve"]

#: Either proxy flavour; the durable facade duck-types the surface the
#: routes read (stats, client_stats, registry, running, monitor).
AnyProxy = Union[StreamingProxy, "DurableStreamingProxy"]  # noqa: F821


def _breaker_counts(proxy: AnyProxy) -> dict[str, float]:
    stats = proxy.monitor.health_stats
    if stats is None:
        return {"opens": 0, "reopens": 0, "closes": 0, "short_circuited": 0}
    as_dict = stats.as_dict()
    return {
        key: as_dict.get(key, 0)
        for key in ("opens", "reopens", "closes", "short_circuited")
    }


def _routes(proxy: AnyProxy, path: str) -> tuple[int, dict]:
    """Shared routing logic: ``(status, payload)`` for one GET path."""
    if path in ("/healthz", "/healthz/"):
        stats = proxy.stats()
        payload = {
            "status": "ok",
            "now": stats["now"],
            "clients": stats["clients"],
            "open_ceis": stats["open_ceis"],
            "clock_running": proxy.running,
            "breakers": _breaker_counts(proxy),
        }
        status_fn = getattr(proxy, "durability_status", None)
        if status_fn is not None:
            durability = status_fn()
            payload["status"] = "degraded" if durability["degraded"] else "ok"
            payload["wal_lag"] = durability["wal_lag"]
            payload["last_snapshot_chronon"] = durability[
                "last_snapshot_chronon"
            ]
            payload["durability"] = durability
        # 200 even when degraded: liveness is the status code's contract;
        # health is the body's.
        return 200, payload
    if path in ("/stats", "/stats/"):
        return 200, dict(proxy.stats())
    parts = [p for p in path.split("/") if p]
    if len(parts) == 3 and parts[0] == "clients" and parts[2] == "stats":
        name = unquote(parts[1])
        if name not in proxy.registry:
            return 404, {"error": f"client {name!r} is not registered"}
        return 200, dict(proxy.client_stats(name))
    return 404, {"error": f"no route for {path!r}"}


def _post_routes(proxy: AnyProxy, path: str) -> tuple[int, dict]:
    """Shared routing logic for POST paths (the snapshot trigger)."""
    if path in ("/snapshot", "/snapshot/"):
        checkpoint = getattr(proxy, "checkpoint", None)
        if checkpoint is None:
            return 409, {
                "error": "this proxy is not durable; construct a "
                "DurableStreamingProxy (or pass --wal-dir) to snapshot"
            }
        snapshot_id = checkpoint()
        if snapshot_id is None:
            return 200, {
                "snapshot_id": None,
                "degraded": True,
                "error": "snapshot store refused the checkpoint; "
                "the journal still holds the full history",
            }
        return 200, {"snapshot_id": snapshot_id, "degraded": proxy.degraded}
    return 404, {"error": f"no route for {path!r}"}


class ProxyService:
    """A running HTTP endpoint bound to one proxy (see :func:`serve`)."""

    def __init__(self, proxy: AnyProxy, host: str, port: int) -> None:
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def _reply(self, status: int, payload: dict) -> None:
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                status, payload = _routes(outer.proxy, self.path.split("?")[0])
                self._reply(status, payload)

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                status, payload = _post_routes(
                    outer.proxy, self.path.split("?")[0]
                )
                self._reply(status, payload)

            def log_message(self, *args) -> None:  # silence per-request spam
                pass

        self.proxy = proxy
        self._stop_requested = threading.Event()
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="streaming-proxy-http",
            daemon=True,
        )
        self._thread.start()

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` auto-assignment)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def shutdown(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    # -- graceful shutdown --------------------------------------------

    def request_shutdown(self) -> None:
        """Ask :meth:`wait` to return (signal-handler safe)."""
        self._stop_requested.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM and SIGINT to :meth:`request_shutdown`.

        Only callable from the main thread (a :mod:`signal` constraint);
        the handlers merely set an event, so the actual teardown runs in
        :meth:`shutdown_gracefully`'s ordinary context, not inside the
        handler.
        """
        def _handler(signum, frame) -> None:
            self.request_shutdown()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown is requested; True if it was."""
        return self._stop_requested.wait(timeout)

    def shutdown_gracefully(self) -> None:
        """Orderly teardown: clock, journal, final snapshot, socket.

        Stops the proxy's background clock, then (durable proxies)
        flushes the write-ahead log and writes a final snapshot via
        ``close()``, and finally releases the HTTP socket.  Safe to call
        on a plain :class:`StreamingProxy` too (clock stop only).
        """
        self.proxy.stop()
        close = getattr(self.proxy, "close", None)
        if close is not None:
            close()
        self.shutdown()


def serve(
    proxy: AnyProxy,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    graceful_shutdown: bool = False,
) -> ProxyService:
    """Expose a proxy over HTTP from a daemon thread; returns the service.

    ``port=0`` picks a free port — read it back from
    :attr:`ProxyService.port`.  The caller owns both lifetimes: stop the
    proxy clock and call :meth:`ProxyService.shutdown` when done — or
    pass ``graceful_shutdown=True`` (main thread only) to install
    SIGTERM/SIGINT handlers that request an orderly teardown; then block
    on :meth:`ProxyService.wait` and call
    :meth:`ProxyService.shutdown_gracefully`.
    """
    service = ProxyService(proxy, host, port)
    if graceful_shutdown:
        service.install_signal_handlers()
    return service


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.proxy serve",
        description="Serve a streaming proxy over HTTP, optionally durable.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = auto-assign)"
    )
    parser.add_argument("--policy", default="MRSF", help="probing policy name")
    parser.add_argument(
        "--budget", type=float, default=1.0, help="probes per chronon"
    )
    parser.add_argument(
        "--resources",
        type=int,
        default=0,
        help="create this many named resources (0 = lazy default pool)",
    )
    parser.add_argument(
        "--tick-interval",
        type=float,
        default=0.0,
        help="seconds between background clock ticks (0 = manual clock)",
    )
    parser.add_argument(
        "--chronons",
        type=int,
        default=0,
        help="exit after this many chronons (0 = run until signalled)",
    )
    durable = parser.add_argument_group("durability")
    durable.add_argument(
        "--wal-dir",
        default=None,
        help="directory for the write-ahead log and snapshot store; "
        "enables the durable proxy and recovers any existing state",
    )
    durable.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="always",
        help="journal fsync policy (default: always)",
    )
    durable.add_argument(
        "--fsync-every",
        type=int,
        default=32,
        help="records between fsyncs under --fsync interval",
    )
    durable.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="checkpoint every N chronons (0 = manual / POST /snapshot)",
    )
    durable.add_argument(
        "--recovery",
        choices=("exact", "durable"),
        default="exact",
        help="recovery mode: exact replays each record at its chronon "
        "(bit-identical); durable replays them at the checkpoint's clock "
        "(clients, needs and budget, no scheduling state)",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.proxy serve``: run the service until signalled."""
    args = build_parser().parse_args(argv)
    if args.wal_dir is not None:
        from repro.proxy.durability import DurabilityConfig, DurableStreamingProxy

        proxy: AnyProxy = DurableStreamingProxy(
            DurabilityConfig(
                root=args.wal_dir,
                fsync=args.fsync,
                fsync_every=args.fsync_every,
                snapshot_every=args.snapshot_every,
                recovery=args.recovery,
            ),
            budget=args.budget,
            policy=args.policy,
            resources=_pool_of(args.resources),
        )
    else:
        proxy = StreamingProxy(
            budget=args.budget,
            policy=args.policy,
            resources=_pool_of(args.resources),
        )
    service = serve(proxy, args.host, args.port, graceful_shutdown=True)
    print(f"serving {service.url}", flush=True)
    if args.tick_interval > 0:
        proxy.start(interval=args.tick_interval)
    try:
        if args.chronons:
            while proxy.now < args.chronons and not service.wait(0.02):
                if args.tick_interval <= 0:
                    proxy.tick()
        else:
            service.wait()
    finally:
        service.shutdown_gracefully()
    return 0


def _pool_of(count: int):
    if count <= 0:
        return None
    from repro.core.resource import ResourcePool

    return ResourcePool.from_names([f"feed{i}" for i in range(count)])


def _main() -> None:  # pragma: no cover - manual smoke entry point
    """``python -m repro.proxy.service``: serve until signalled."""
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    _main()
