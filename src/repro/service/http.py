"""HTTP/1.1 plumbing under the front door.

The :class:`~repro.service.server.VerificationService` — and the
:class:`~repro.cluster.router.ClusterRouter`, which is one — speaks JSON
bodies over hand-rolled HTTP/1.1 with keep-alive, on
:func:`asyncio.start_server`, zero dependencies beyond the standard
library. This module is that substrate:

* :class:`HttpServerBase` — connection lifecycle (accept, keep-alive
  loop, graceful half of shutdown), request parsing with body-size
  limits, response writing, per-endpoint metrics and spans, and the
  in-flight request accounting that lets shutdown drain accepted
  requests without letting a parked keep-alive socket hold it hostage;
* :class:`HttpError` — the internal status-plus-payload carrier handlers
  raise to produce a JSON error response;
* :func:`json_body` — strict JSON-object body parsing.

Subclasses implement :meth:`HttpServerBase._handle` (the route table)
and may override :attr:`HttpServerBase.metrics_prefix` so their request
counters and latency histograms land under their own namespace
(``service.http.*`` vs ``cluster.http.*``).
"""

from __future__ import annotations

import asyncio
import contextvars
import json

from ..errors import ReproError
from ..obs.config import Observability
from ..obs.context import (
    IdSource,
    parse_trace_header,
    reset_trace_context,
    set_trace_context,
)
from ..obs.metrics import MetricsRegistry

__all__ = [
    "HttpError",
    "HttpServerBase",
    "json_body",
    "MAX_BODY_BYTES",
    "REQUEST_ID_HEADER",
]

#: Every response carries one: echoed when the client supplied it,
#: minted otherwise — the correlation handle for logs and bug reports.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Largest accepted request body; a specification is text, not a payload.
MAX_BODY_BYTES = 1 << 20

#: The ``http.<endpoint>`` span of the request the current task serves, set
#: only while tracing: each connection is its own task, so this is per request.
_REQUEST_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "repro_request_span", default=None
)

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable", 504: "Gateway Timeout",
}


class HttpError(Exception):
    """Internal: carries a status + JSON error payload to the writer."""

    def __init__(self, status: int, message: str, **extra):
        self.status = status
        self.payload = {"error": message, **extra}
        super().__init__(message)


def json_body(body: bytes):
    """Parse a request body as a JSON object (``{}`` when empty)."""
    if not body:
        return {}
    try:
        data = json.loads(body)
    except ValueError:
        raise HttpError(400, "request body is not valid JSON") from None
    if not isinstance(data, dict):
        raise HttpError(400, "request body must be a JSON object")
    return data


class HttpServerBase:
    """A JSON-over-HTTP asyncio server; subclasses supply the routes.

    The contract for subclasses:

    * implement ``async _handle(method, path, query, headers, body)``
      returning ``(status, payload, content_type)`` — ``payload`` is a
      ``str`` (sent verbatim) or any JSON-serializable object;
    * raise :class:`HttpError` for protocol-level rejections, or any
      :class:`~repro.errors.ReproError` to have :attr:`error_statuses`
      map it;
    * optionally set :attr:`metrics_prefix` for the metrics namespace,
      and call :meth:`_annotate_request` to put attributes on the
      request's span.
    """

    metrics_prefix = "service"
    #: ``(error class or classes, status)`` rows, first match wins; any
    #: other library error is the client's (400).
    error_statuses: tuple = ()

    def __init__(self, obs: Observability | None = None):
        self.obs = obs if obs is not None else Observability(
            metrics=MetricsRegistry()
        )
        # Request ids come from the tracer's IdSource when tracing is
        # distributed (so a seeded run mints a replayable id stream), and
        # from a private source otherwise.
        self._request_ids = getattr(self.obs.tracer, "ids", None) or IdSource()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._shutting_down = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | None:
        """The bound ``(host, port)`` — resolves ``port=0`` requests."""
        if self._server is None or not self._server.sockets:
            return None
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound address."""
        self._server = await asyncio.start_server(self._on_connection, host, port)
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def _stop_accepting(self) -> None:
        """Close the listening socket (half one of a graceful shutdown).

        Deliberately no ``wait_closed()``: from CPython 3.12.1 it waits
        for every open connection, so it would block until the clients
        went away — before the drain that answers them has begun. The
        connection tasks are reaped by :meth:`_drain_connections` or
        cancelled by :meth:`_cancel_connections` instead.
        """
        self._shutting_down = True
        if self._server is not None:
            self._server.close()

    async def _drain_connections(self) -> None:
        """Wait for in-flight *requests* (not idle keep-alive sockets — a
        parked client must not be able to hold shutdown hostage), then
        cancel and reap every connection task."""
        await self._idle.wait()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    def _cancel_connections(self) -> None:
        """The abrupt path: cancel every connection task immediately."""
        for task in list(self._connections):
            task.cancel()

    # -- connection handling --------------------------------------------------

    def _on_connection(self, reader, writer) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except HttpError as exc:
                    await self._write_response(
                        writer, exc.status, exc.payload,
                        "application/json", keep_alive=False,
                    )
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                self._begin_request()
                try:
                    status, payload, content_type, extra = await self._route(
                        method, path, query, headers, body
                    )
                    await self._write_response(
                        writer, status, payload, content_type,
                        keep_alive=keep_alive, extra_headers=extra,
                    )
                finally:
                    self._end_request()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _write_response(self, writer, status, payload, content_type,
                              keep_alive: bool,
                              extra_headers: dict[str, str] | None = None,
                              ) -> None:
        raw = (
            payload.encode("utf-8")
            if isinstance(payload, str)
            else json.dumps(payload, default=str).encode("utf-8")
        )
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        writer.write(
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(raw)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            "\r\n".encode("ascii")
        )
        writer.write(raw)
        await writer.drain()

    def _begin_request(self) -> None:
        self._active_requests += 1
        self._idle.clear()

    def _end_request(self) -> None:
        self._active_requests -= 1
        if self._active_requests == 0:
            self._idle.set()

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request; None on clean EOF between requests."""
        try:
            request_line = await reader.readline()
        except (ConnectionResetError, ValueError):
            return None
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("ascii").split()
        except ValueError:
            raise HttpError(400, "malformed request line") from None
        path, _, query_string = target.partition("?")
        query = {}
        for pair in query_string.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                query[key] = value
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # longer than the stream's line limit
                raise HttpError(400, "request header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise HttpError(400, "malformed Content-Length header")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, query, headers, body

    # -- routing --------------------------------------------------------------

    async def _route(self, method, path, query, headers, body):
        """Dispatch; returns (status, payload, content-type, extra headers).

        Besides the route table this is where a request's observability
        identity is established: the ``X-Repro-Trace`` header (if any)
        becomes the remote parent of the ``http.<endpoint>`` span, the
        span's own context is installed in the task-local contextvar so
        everything the handler awaits inherits it, and the request id is
        echoed (or minted) into the response headers. The span records
        the outcome either way — ``status`` always, ``error_type`` on
        failures.
        """
        endpoint = path.strip("/").replace("/", ".") or "root"
        metrics = self.obs.metrics
        started = asyncio.get_running_loop().time()
        ctx = parse_trace_header(headers.get("x-repro-trace"))
        request_id = (
            headers.get("x-repro-request-id", "").strip()
            or self._request_ids.request_id()
        )
        error_type: str | None = None
        token = span_token = None
        try:
            with self.obs.tracer.span(
                f"http.{endpoint}", method=method, ctx=ctx, root=True
            ) as span:
                own_ctx = getattr(span, "context", None)
                if own_ctx is not None:
                    token = set_trace_context(own_ctx)
                if self.obs.tracer.enabled:
                    span_token = _REQUEST_SPAN.set(span)
                try:
                    status, payload, content_type = await self._handle(
                        method, path, query, headers, body
                    )
                except HttpError as exc:
                    status, payload, content_type = (
                        exc.status, exc.payload, "application/json",
                    )
                    error_type = type(exc).__name__
                except ReproError as exc:
                    status = next((code for kinds, code in self.error_statuses
                                   if isinstance(exc, kinds)), 400)
                    payload = {"error": str(exc), "kind": type(exc).__name__}
                    content_type = "application/json"
                    error_type = type(exc).__name__
                except Exception as exc:  # never kill the connection loop
                    status = 500
                    payload = {"error": str(exc), "kind": type(exc).__name__}
                    content_type = "application/json"
                    error_type = type(exc).__name__
                span.annotate(status=status)
                if error_type is not None:
                    span.annotate(error_type=error_type)
        finally:
            if token is not None:
                reset_trace_context(token)
            if span_token is not None:
                _REQUEST_SPAN.reset(span_token)
        latency = asyncio.get_running_loop().time() - started
        if metrics is not None:
            prefix = self.metrics_prefix
            metrics.inc(f"{prefix}.http.{endpoint}.requests")
            if status >= 400:
                metrics.inc(f"{prefix}.http.{endpoint}.errors")
            metrics.observe(f"{prefix}.http.{endpoint}.latency", latency)
        self._observe_outcome(endpoint, status, latency)
        return status, payload, content_type, {REQUEST_ID_HEADER: request_id}

    def _observe_outcome(self, endpoint: str, status: int,
                         latency: float) -> None:
        """Per-request hook; the router feeds its SLO monitor here."""

    @staticmethod
    def _annotate_request(**attrs) -> None:
        """Attach ``attrs`` to the span of the request being handled (a
        no-op while tracing is off)."""
        span = _REQUEST_SPAN.get()
        if span is not None:
            span.annotate(**attrs)

    async def _handle(self, method, path, query, headers, body):
        raise NotImplementedError
