#!/usr/bin/env python3
"""Load generator for the ThreadFuser analysis server (``repro.serve``).

Drives an instance through the three traffic shapes the serving layer
is built for and reports throughput/latency/coalescing numbers:

* **cold** -- distinct submits (unique seeds), each awaited to
  completion: the end-to-end analysis latency;
* **warm**  -- the same specs resubmitted: every request must answer
  instantly from the job registry / artifact store;
* **burst** -- N clients submitting one *identical new* spec
  concurrently: exactly one computation may run, the other N-1
  submits must coalesce onto it.

Point it at a running server (``--url http://127.0.0.1:8787``) or let
it spawn one (``--spawn`` boots ``python -m repro serve --port 0`` and
parses the ``SERVE_URL=...`` line).  ``--smoke`` shrinks everything
for CI.  ``--out`` writes the measurements as JSON (the shape
``tools/bench_compare.py`` understands).

Examples::

    python tools/serve_load.py --spawn --smoke --out serve_load.json
    python tools/serve_load.py --url http://127.0.0.1:8787 \
        --requests 8 --clients 8

stdlib only: ``http.client`` keep-alive connections, one per client
thread.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

POLL_S = 0.02
JOB_TIMEOUT_S = 300.0


class Client:
    """One keep-alive HTTP/JSON connection to the server."""

    def __init__(self, url: str) -> None:
        parts = urlsplit(url)
        self.conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=60.0)

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> Tuple[int, Dict]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, json.loads(data)

    def close(self) -> None:
        self.conn.close()


def wait_done(client: Client, job_id: str) -> Dict:
    """Poll one job until terminal; returns the final snapshot."""
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        status, doc = client.request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            raise RuntimeError(f"poll failed: {status} {doc}")
        if doc["status"] in ("done", "failed"):
            return doc
        if time.monotonic() > deadline:
            raise RuntimeError(f"job {job_id[:12]} timed out")
        time.sleep(POLL_S)


def submit_and_wait(client: Client, spec: Dict,
                    endpoint: str = "/v1/analyze") -> Tuple[float, Dict]:
    """Submit one job and await completion; returns (seconds, doc)."""
    t0 = time.perf_counter()
    status, doc = client.request("POST", endpoint, spec)
    if status not in (200, 202):
        raise RuntimeError(f"submit failed: {status} {doc}")
    if doc["status"] != "done":
        doc = wait_done(client, doc["job_id"])
    if doc["status"] != "done":
        raise RuntimeError(f"job failed: {doc.get('error')}")
    return time.perf_counter() - t0, doc


def executions_of(health: Dict) -> int:
    """The server's machine-execution count from a health document.

    Schema v2 and later export a top-level ``executions`` total; older
    servers only carried the session's counter.
    """
    if "executions" in health:
        return health["executions"]
    return health["session"]["executions"]


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` (nearest-rank)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def run_load(url: str, workload: str, n_threads: int, requests: int,
             clients: int) -> Dict[str, Any]:
    """Run the cold/warm/burst phases against ``url``; return metrics."""
    probe = Client(url)
    status, health = probe.request("GET", "/v1/health")
    if status != 200:
        raise RuntimeError(f"health probe failed: {status} {health}")

    specs = [
        {"workload": workload, "n_threads": n_threads, "seed": 100 + i}
        for i in range(requests)
    ]

    t_start = time.perf_counter()
    cold = [submit_and_wait(probe, spec)[0] for spec in specs]
    warm = [submit_and_wait(probe, spec)[0] for spec in specs]

    # Burst: `clients` threads race one identical, never-seen spec.
    burst_spec = {"workload": workload, "n_threads": n_threads,
                  "seed": 424242}
    _, before = probe.request("GET", "/v1/health")
    latencies: List[float] = [0.0] * clients
    errors: List[BaseException] = []
    barrier = threading.Barrier(clients)

    def burst(slot: int) -> None:
        try:
            client = Client(url)
            barrier.wait()
            latencies[slot] = submit_and_wait(client, burst_spec)[0]
            client.close()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=burst, args=(slot,))
               for slot in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"burst client failed: {errors[0]}")
    elapsed = time.perf_counter() - t_start

    _, after = probe.request("GET", "/v1/health")
    burst_coalesced = (after["requests"]["coalesced"]
                      - before["requests"]["coalesced"])
    burst_analyses = executions_of(after) - executions_of(before)
    total = 2 * requests + clients
    cold_p50 = percentile(cold, 0.50)
    warm_p50 = percentile(warm, 0.50)
    probe.close()
    return {
        "workload": workload,
        "n_threads": n_threads,
        "requests": total,
        "throughput_ips": total / elapsed if elapsed else 0.0,
        "cold_p50_s": cold_p50,
        "cold_p95_s": percentile(cold, 0.95),
        "warm_p50_s": warm_p50,
        "warm_p95_s": percentile(warm, 0.95),
        "warm_speedup": (cold_p50 / warm_p50) if warm_p50 else 0.0,
        "burst_clients": clients,
        "burst_coalesced": burst_coalesced,
        "burst_analyses": burst_analyses,
        "coalesce_hit_rate": after["coalesce_hit_rate"],
    }


def spawn_server(cache_dir: Optional[str]) -> Tuple[subprocess.Popen, str]:
    """Boot ``python -m repro serve --port 0``; returns (proc, url).

    Reads the child's stdout until the machine-readable
    ``SERVE_URL=...`` line appears (or the child exits).
    """
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    cmd += ["--cache-dir", cache_dir] if cache_dir else ["--no-cache"]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 60.0
    banner: List[str] = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        banner.append(line)
        if line.startswith("SERVE_URL="):
            return proc, line.split("=", 1)[1].strip()
    proc.terminate()
    raise RuntimeError("server did not print SERVE_URL=...; output:\n"
                       + "".join(banner))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Writes --out as JSON; see docs/SERVING.md.")
    parser.add_argument("--url", default=None,
                        help="base URL of a running server")
    parser.add_argument("--spawn", action="store_true",
                        help="spawn 'python -m repro serve --port 0' and "
                             "load-test it")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory for --spawn (default: "
                             "no cache)")
    parser.add_argument("--workload", default="vectoradd",
                        help="catalog workload to submit (default "
                             "vectoradd)")
    parser.add_argument("--threads", type=int, default=32,
                        help="logical threads per job (default 32)")
    parser.add_argument("--requests", type=int, default=6,
                        help="distinct cold submits (default 6; each is "
                             "also resubmitted warm)")
    parser.add_argument("--clients", type=int, default=6,
                        help="concurrent clients in the coalescing burst "
                             "(default 6)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI configuration (2 requests, "
                             "3 clients, 16 threads)")
    parser.add_argument("--out", default=None,
                        help="write the metrics JSON here")
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests, args.clients, args.threads = 2, 3, 16
    if not args.url and not args.spawn:
        parser.error("need --url or --spawn")

    proc = None
    url = args.url
    try:
        if proc is None and not url:
            proc, url = spawn_server(args.cache_dir)
        print(f"load-testing {url} "
              f"({args.requests} cold+warm, {args.clients}-client burst)")
        metrics = run_load(url, args.workload, args.threads,
                           args.requests, args.clients)
    finally:
        if proc is not None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()

    print(f"throughput:     {metrics['throughput_ips']:8.2f} req/s")
    print(f"cold p50/p95:   {metrics['cold_p50_s'] * 1e3:8.2f} / "
          f"{metrics['cold_p95_s'] * 1e3:.2f} ms")
    print(f"warm p50/p95:   {metrics['warm_p50_s'] * 1e3:8.2f} / "
          f"{metrics['warm_p95_s'] * 1e3:.2f} ms  "
          f"({metrics['warm_speedup']:.1f}x)")
    print(f"burst:          {metrics['burst_clients']} clients -> "
          f"{metrics['burst_analyses']} analysis, "
          f"{metrics['burst_coalesced']} coalesced")
    print(f"coalesce rate:  {metrics['coalesce_hit_rate']:8.2%}")

    if metrics["burst_analyses"] > 1:
        print("FAIL: burst ran more than one underlying analysis",
              file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as out:
            json.dump({"serve_load": metrics}, out, indent=2,
                      sort_keys=True)
            out.write("\n")
        print(f"metrics written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
