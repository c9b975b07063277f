"""The sharded verification cluster (``repro cluster``).

One :class:`~repro.cluster.router.ClusterRouter` front door — speaking
the exact wire protocol of the single-process daemon — over N supervised
``repro serve`` workers:

* :mod:`~repro.cluster.placement` — consistent-hash placement of spec
  keys onto K replicas (Corollary 3.5 makes verification shardable by
  specification, and placement-by-key keeps worker memos and the shared
  compile cache warm);
* :mod:`~repro.cluster.supervisor` — health checks, exponential-backoff
  restarts with seeded jitter, per-worker circuit breakers against
  crash loops;
* :mod:`~repro.cluster.failover` — request-level failover across a
  key's replica set with a retry budget and optional hedged reads
  (verification is pure, so retries are safe and bit-identical);
* :mod:`~repro.cluster.quotas` — work-conserving per-tenant admission
  shares with fair shedding;
* degraded mode — when every replica for a key is down, the router
  answers from a bounded in-process verifier, tagging the response
  ``"degraded": true`` rather than dropping the request.

The router is the daemon (:class:`~repro.service.server.
VerificationService`) plus forwarding; :func:`~repro.cluster.router.
assemble_cluster` builds it with its workers for ``repro cluster`` and
:func:`~repro.cluster.router.cluster_in_thread`, whose handle is the
daemon's :class:`~repro.service.server.ServiceHandle`.
"""

from .failover import AllReplicasFailedError, call_with_failover
from .placement import HashRing
from .quotas import AdmissionController, TenantQuotaExceededError
from .router import ClusterRouter, assemble_cluster, cluster_in_thread
from .supervisor import CircuitBreaker, WorkerState, WorkerSupervisor
from .worker import ProcessWorker, WorkerError, WorkerUnavailableError

__all__ = [
    "HashRing",
    "ProcessWorker",
    "WorkerError",
    "WorkerUnavailableError",
    "WorkerSupervisor",
    "WorkerState",
    "CircuitBreaker",
    "AllReplicasFailedError",
    "call_with_failover",
    "AdmissionController",
    "TenantQuotaExceededError",
    "ClusterRouter",
    "assemble_cluster",
    "cluster_in_thread",
]
