"""HTTP plumbing for `kgmodel serve` (stdlib only).

One :class:`socketserver.ThreadingTCPServer` thread per connection
(shared state sits behind ``ServeState``'s snapshot swap and the locked
cache/metrics) runs one keep-alive loop: read the request line and the
headers the service acts on, call :meth:`ServiceHandlers.handle`, answer
in one write.  A request the loop refuses itself is counted under
``serve.status.<code>`` and ``serve.requests.refused``.
"""

from __future__ import annotations

import json
import socketserver
import threading
import time
from http import HTTPStatus
from typing import Optional, Tuple
from urllib.parse import parse_qsl

from repro.serve.handlers import ServiceHandlers

__all__ = ["KGModelServer", "build_server"]

_MAX_BODY = 32 * 1024 * 1024
_MAX_LINE, _MAX_HEADERS = 65536, 100  # http.client's limits
_READ = (b"content-length", b"transfer-encoding", b"connection", b"expect")
_STATUS_LINE = {s: b"HTTP/1.1 %d %s\r\n" % (s, s.phrase.encode())
                for s in HTTPStatus}


class _Refused(Exception):
    """A request the loop answers itself; it closes unless ``keep_alive``."""

    def __init__(self, status: int, message: str, keep_alive=False):
        super().__init__(message)
        self.status, self.keep_alive = status, keep_alive


class _Connection(socketserver.StreamRequestHandler):
    """One connection: read a request, delegate, write JSON; repeat."""

    # A response is one write; Nagle would hold it behind a delayed ACK.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        handlers: ServiceHandlers = self.server.handlers
        keep_alive = True
        while keep_alive:
            try:
                request = self._read_request()
            except _Refused as refused:
                handlers.metrics.inc("serve.requests.refused")
                handlers.metrics.inc(f"serve.status.{refused.status}")
                self._respond(refused.status, {"error": str(refused)})
                keep_alive = refused.keep_alive
                continue
            if request is None:
                return
            method, target, body, keep_alive = request
            # The target is in origin form: a path and, after the first
            # "?", a query.  A leading "//" is a path, not an authority.
            path, _, query = target.partition("?")
            if path.startswith("//"):
                path = "/" + path.lstrip("/")
            try:
                status, payload = handlers.handle(
                    method, path, dict(parse_qsl(query)), body
                )
            except Exception as exc:  # a handler bug must not drop the socket
                status, payload = 500, {"error": f"internal error: {exc}"}
                handlers.metrics.inc("serve.status.500")
            self._respond(status, payload)

    def _line(self, too_long: int) -> bytes:
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refused(too_long, "line too long")
        return line

    def _read_request(self):
        """``(method, target, body, keep_alive)``; None at end of stream."""
        line = self._line(414)
        if not line:
            return None
        words = line.decode("latin-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise _Refused(400, "bad request line")
        method, target, version = words
        fields = {}
        for count in range(_MAX_HEADERS + 1):
            line = self._line(431)
            if line in (b"\r\n", b"\n", b""):
                break
            if count == _MAX_HEADERS:
                raise _Refused(431, "too many headers")
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name in _READ:
                if name == b"content-length" and name in fields:
                    raise _Refused(400, "repeated Content-Length")
                fields[name] = value.strip().lower()
        connection = fields.get(b"connection")
        keep_alive = connection == b"keep-alive" or (
            version == "HTTP/1.1" and connection != b"close")
        if method not in ("GET", "POST"):
            raise _Refused(501, f"unsupported method {method!r}")
        if b"transfer-encoding" in fields:
            raise _Refused(501, "Transfer-Encoding is not supported")
        length = fields.get(b"content-length", b"0")
        if not length.isdigit():
            raise _Refused(400, "Content-Length must be an integer >= 0")
        length = int(length)
        if length > _MAX_BODY:  # closing beats draining up to _MAX_BODY
            raise _Refused(413, "body too large")
        expects = fields.get(b"expect") == b"100-continue"
        if length and expects and version == "HTTP/1.1":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _Refused(400, "body must be valid JSON", keep_alive)
        return method, target, body, keep_alive

    def _respond(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        date = time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime())
        self.wfile.write(
            b"%sDate: %s\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s"
            % (_STATUS_LINE[status], date.encode(), len(body), body)
        )


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class KGModelServer:
    """A started/stoppable HTTP server around :class:`ServiceHandlers`."""

    def __init__(
        self,
        handlers: ServiceHandlers,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.handlers = handlers
        self.httpd = _Server((host, port), _Connection)
        self.httpd.handlers = handlers
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
