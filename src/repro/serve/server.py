"""HTTP plumbing for `kgmodel serve` (stdlib only).

:class:`ThreadingHTTPServer` gives one thread per connection; all shared
state lives behind :class:`~repro.serve.state.ServeState`'s snapshot
swap and the locked cache/metrics, so handler threads never coordinate
directly.  :func:`build_server` binds (port 0 picks a free port) without
serving, which is what the tests and the smoke script use.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl

from repro.serve.handlers import ServiceHandlers

__all__ = ["KGModelServer", "build_server"]

_MAX_BODY = 32 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter: parse the request, delegate, write JSON."""

    handlers: ServiceHandlers  # set on the dynamically-built subclass
    protocol_version = "HTTP/1.1"
    # Keep-alive latency: headers and body go out in separate writes;
    # with Nagle on, the body write stalls behind the client's delayed
    # ACK (~40ms per request on an otherwise idle connection).
    disable_nagle_algorithm = True

    def _respond(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _run(self, method: str, body=None) -> None:
        # The request target is in origin form: a path and, after the
        # first "?", a query.
        path, _, query = self.path.partition("?")
        params = dict(parse_qsl(query))
        try:
            status, payload = self.handlers.handle(
                method, path, params, body
            )
        except Exception as exc:  # defensive: a handler bug must not
            status, payload = 500, {"error": f"internal error: {exc}"}
        self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._run("GET")

    def do_POST(self) -> None:  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            # The unread body would be parsed as the next request on a
            # kept-alive socket; drop the connection instead of draining
            # up to _MAX_BODY of garbage.
            self.close_connection = True
            self._respond(413, {"error": "body too large"})
            return
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._respond(400, {"error": "body must be valid JSON"})
            return
        self._run("POST", body)

    def log_message(self, format: str, *args) -> None:
        """Silence stderr access logs; metrics carry request counts."""


class KGModelServer:
    """A started/stoppable HTTP server around :class:`ServiceHandlers`."""

    def __init__(
        self,
        handlers: ServiceHandlers,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        handler_cls = type("BoundHandler", (_Handler,), {"handlers": handlers})
        self.handlers = handlers
        self.httpd = ThreadingHTTPServer((host, port), handler_cls)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "KGModelServer":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="kgmodel-serve",
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "KGModelServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def build_server(
    handlers: ServiceHandlers,
    host: str = "127.0.0.1",
    port: int = 0,
) -> KGModelServer:
    """Bind (but do not start) a server; port 0 picks a free port."""
    return KGModelServer(handlers, host=host, port=port)
