"""A small blocking client for the verification service.

:class:`ServiceClient` wraps :mod:`http.client` (standard library only,
matching the daemon's zero-dependency stance) with one keep-alive
connection per client and JSON in/out. It exists for the test suite, the
benchmark harness, and the quickstart example; production callers can
use any HTTP client — the protocol is plain JSON over HTTP/1.1.

Service-side rejections surface as :class:`ServiceClientError` carrying
the HTTP status, so callers can tell backpressure (429), draining (503),
and deadline expiry (504) apart from their own bugs (400/404).

Retries are deliberate, not blind. A request is re-sent only when it is
provably safe: the connection failed before any bytes were sent (nothing
reached the server), or the endpoint is *idempotent* — all the read-only
decision procedures (``/verify``, ``/consistency``, ``/compile``,
``/schedule``) are pure functions of the specification, and GETs
trivially so. A non-idempotent ``POST /specs`` that dies mid-response is
surfaced to the caller instead of silently re-executed. Between retries
the client backs off with seeded jitter, bounded by ``retries``, so a
fleet of clients hammering a restarting daemon does not re-arrive in
lockstep. The same client speaks to a single ``repro serve`` daemon or a
``repro cluster`` router — identical wire protocol; ``tenant=`` adds the
``X-Repro-Tenant`` namespace header the router scopes specs and
admission quotas by.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any

from ..core.resilience import RetryPolicy
from ..errors import ReproError
from ..obs.context import (
    TRACE_HEADER,
    IdSource,
    TraceContext,
    current_trace_context,
    format_trace_header,
)

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(ReproError):
    """A non-2xx response from the service.

    ``request_id`` is the server's ``X-Repro-Request-Id`` for the failed
    exchange (None when the response never arrived) — quote it when
    filing a bug against a daemon's logs.
    """

    def __init__(self, status: int, payload: Any,
                 request_id: str | None = None):
        self.status = status
        self.payload = payload
        self.request_id = request_id
        message = payload.get("error") if isinstance(payload, dict) else None
        detail = f" [request {request_id}]" if request_id else ""
        super().__init__(
            (message or f"service returned HTTP {status}") + detail
        )


class ServiceClient:
    """Blocking JSON client over one keep-alive connection.

    Not thread-safe (``http.client`` connections are not); give each
    thread its own client — they multiplex fine on the server side, which
    is exactly what the batcher wants.

    ``retries`` bounds reconnect attempts *after* the first try;
    ``backoff`` is the base delay between them, doubled per attempt and
    jittered by the seeded ``rng`` into ``[0.5, 1.0]`` of each step (pass
    ``backoff=0`` in tests for instant retries).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 *, tenant: str | None = None, retries: int = 1,
                 backoff: float = 0.05, seed: int | None = None,
                 ids: IdSource | None = None):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.tenant = tenant
        self.retries = retries
        self.backoff = backoff
        # 0.75 * step * (1 ± 1/3): full jitter over [0.5, 1.0] of the step,
        # so concurrent clients spread out instead of retrying in lockstep.
        self._policy = RetryPolicy(max_attempts=retries + 1,
                                   base_delay=0.75 * backoff, multiplier=2.0,
                                   jitter=1 / 3)
        #: With an IdSource the client *originates* traces: every request
        #: carries an ``X-Repro-Trace`` header (fresh trace id per call,
        #: unless an ambient context is already installed) and the last
        #: minted trace id is kept on :attr:`last_trace_id` for
        #: ``repro trace fetch``.
        self.ids = ids
        self.last_trace_id: str | None = None
        self.last_request_id: str | None = None
        self._rng = random.Random(seed)
        self._sleep = time.sleep  # test seam
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _request(self, method: str, path: str, body: dict | None = None,
                 idempotent: bool | None = None):
        """One exchange, with bounded retries where re-sending is safe.

        ``idempotent=None`` means "GETs only". Failures while *connecting*
        (no bytes ever reached the server) are always retryable; failures
        after the request started going out are retried only for
        idempotent endpoints — the server may already be (or have
        finished) executing the first copy.
        """
        if idempotent is None:
            idempotent = method == "GET"
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        ctx = current_trace_context()
        if ctx is None and self.ids is not None:
            ctx = TraceContext(
                trace_id=self.ids.trace_id(), span_id=self.ids.span_id()
            )
        if ctx is not None:
            headers[TRACE_HEADER] = format_trace_header(ctx)
            self.last_trace_id = ctx.trace_id
        attempt = 0
        while True:
            attempt += 1
            conn = self._connection()
            connected = conn.sock is not None
            try:
                if not connected:
                    conn.connect()  # split out: a connect failure sent nothing
            except (OSError, http.client.HTTPException):
                self.close()
                if attempt > self.retries:
                    raise
                self._backoff_sleep(attempt)
                continue
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                break
            except (http.client.HTTPException, ConnectionError,
                    BrokenPipeError, TimeoutError):
                # The request (at least partly) went out and died — a
                # dropped keep-alive, a mid-response crash. Only an
                # idempotent endpoint may be re-sent: the server may have
                # executed the first copy already.
                self.close()
                if not idempotent or attempt > self.retries:
                    raise
                self._backoff_sleep(attempt)
        raw = response.read()
        content_type = response.headers.get("Content-Type", "")
        self.last_request_id = response.headers.get("X-Repro-Request-Id")
        if content_type.startswith("application/json"):
            data = json.loads(raw) if raw else {}
        else:
            data = raw.decode("utf-8")
        if response.status >= 400:
            raise ServiceClientError(response.status, data,
                                     request_id=self.last_request_id)
        return data

    def _backoff_sleep(self, attempt: int) -> None:
        if self.backoff > 0:
            self._sleep(self._policy.delay(attempt, self._rng))

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- endpoints ------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self, format: str = "text"):
        """The metrics exposition: Prometheus text, or a dict with
        ``format="json"``."""
        suffix = "?format=json" if format == "json" else ""
        return self._request("GET", "/metrics" + suffix)

    def specs(self) -> list[dict]:
        return self._request("GET", "/specs")["specs"]

    def traces(self) -> list[str]:
        """Trace ids the daemon (or router sink) has retained."""
        return self._request("GET", "/traces")["traces"]

    def trace(self, trace_id: str) -> dict:
        """One trace: the span segment(s) the far end holds for it."""
        return self._request("GET", f"/traces/{trace_id}")

    def cluster_status(self) -> dict:
        """The router's fleet view: workers, ring, admission, SLOs."""
        return self._request("GET", "/cluster/status")

    def cluster_metrics(self, format: str = "text"):
        """The federated exposition (totals + router + every live
        worker): Prometheus text, or the dict form with ``format="json"``."""
        suffix = "?format=json" if format == "json" else ""
        return self._request("GET", "/cluster/metrics" + suffix)

    def register(self, name: str, text: str) -> dict:
        # Not marked idempotent: a re-sent registration racing a
        # different writer could double-bump the version.
        return self._request("POST", "/specs", {"name": name, "text": text})

    def compile(self, spec: str | None = None, text: str | None = None) -> dict:
        return self._request("POST", "/compile", _target(spec, text),
                             idempotent=True)

    def consistency(self, spec: str | None = None,
                    text: str | None = None) -> bool:
        return self._request(
            "POST", "/consistency", _target(spec, text), idempotent=True
        )["consistent"]

    def verify(
        self,
        spec: str | None = None,
        text: str | None = None,
        properties: list[str] | None = None,
        timeout: float | None = None,
        seed: int | None = None,
    ) -> dict:
        body = _target(spec, text)
        if properties is not None:
            body["properties"] = list(properties)
        if timeout is not None:
            body["timeout"] = timeout
        if seed is not None:
            body["seed"] = seed
        return self._request("POST", "/verify", body, idempotent=True)

    def schedule(self, spec: str | None = None, text: str | None = None,
                 limit: int = 1) -> dict:
        body = _target(spec, text)
        body["limit"] = limit
        return self._request("POST", "/schedule", body, idempotent=True)


def _target(spec: str | None, text: str | None) -> dict:
    if (spec is None) == (text is None):
        raise ValueError("provide exactly one of spec= or text=")
    return {"spec": spec} if spec is not None else {"text": text}
