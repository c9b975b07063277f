#!/usr/bin/env python3
"""Quickstart: run the verification service and talk to it over HTTP.

The daemon (`repro serve`) turns the library's decision procedures into
a long-running service: register workflow specifications by name, then
`verify`/`consistency`/`schedule` them over JSON-HTTP. Concurrent
verification requests for the same specification are *batched* with no
coalescing sleep — a request the running batch already covers joins it,
the rest share the next Theorem 5.9 fan-out — and the compile cost of
Theorem 5.11 is paid once per specification content, not once per
request.

This example starts the service in-process on an ephemeral port (the
same harness the test suite and benchmarks use), exercises every
endpoint, fires concurrent clients to show joining and coalescing, and
shuts down gracefully.

Run:  python examples/serve_quickstart.py
"""

import threading

from repro.service import serve_in_thread

ORDERS = """
# Order fulfillment with a credit/stock race before approval.
goal: receive * (credit_check | stock_check) * (approve + reject) * archive

constraint: precedes(credit_check, approve) or never(approve)

property checked_first: precedes(credit_check, approve) or never(approve)
property always_archived: happens(archive)
property stock_gates_credit: precedes(stock_check, credit_check)
"""


def main() -> None:
    # Start the daemon on a background thread, ephemeral port. From a
    # shell you would instead run e.g.:
    #   python -m repro serve --specs-dir examples/specs --port 8745
    handle = serve_in_thread()
    print(f"service is up at {handle.url}")

    with handle.client() as client:
        # 1. Register a specification by name (versioned; re-registering
        # changed text bumps the version and invalidates the memo).
        registered = client.register("orders", ORDERS)
        print(f"registered {registered['name']} v{registered['version']}")
        print("health:", client.healthz())

        # 2. Consistency (Theorem 5.8) and schedule enumeration.
        print("consistent:", client.consistency(spec="orders"))
        schedules = client.schedule(spec="orders", limit=3)["schedules"]
        for schedule in schedules:
            print("  allowed:", " -> ".join(schedule))

        # 3. Verification (Theorem 5.9): the spec's declared properties.
        print("\nverdicts:")
        for result in client.verify(spec="orders")["results"]:
            status = "HOLDS" if result["holds"] else "FAILS"
            print(f"  [{status}] {result['name']}: {result['property']}")
            if result["witness"]:
                print("          witness:", " -> ".join(result["witness"]))

        # 4. Ad-hoc properties and inline (unregistered) specifications.
        adhoc = client.verify(spec="orders", properties=["happens(receive)"])
        print("\nad-hoc happens(receive):", adhoc["results"][0]["holds"])

    # 5. Concurrent clients: a request that the running batch already
    # covers joins it, the others coalesce into the next batch — watch
    # the batcher's counters.
    def worker() -> None:
        with handle.client() as c:
            c.verify(spec="orders")

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = handle.service.batcher.stats
    print(f"\nbatcher: {stats.batches} batches, {stats.verified} properties "
          f"verified, {stats.coalesced} answered by coalescing")

    with handle.client() as client:
        exposition = client.metrics()
        interesting = [line for line in exposition.splitlines()
                       if line.startswith("service_verify_batch")]
        print("metrics excerpt:")
        for line in interesting[:4]:
            print(" ", line)

    # 6. Graceful shutdown: drains accepted work, then stops.
    handle.stop(drain=True)
    print("\nservice drained and stopped")


if __name__ == "__main__":
    main()
