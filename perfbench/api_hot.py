"""``api_hot``: one pipelined WebSocket client against ``repro api serve``.

The server runs in its own process with one worker process per CPU and
one service thread each.  Traffic repeats a mix of eight warm
signatures (16^2 to 192^2, a float32 share and a beta != 0 share) so
plan-cache hits are ~1 after warm-up.  Two phases:

- closed loop with a fixed number of requests in flight: capacity,
  with ``np.matmul`` timed on each completed request's operands in
  the idle gaps between 1-second slices (``speedup_vs_matmul``);
- open loop at a fixed offered rate below capacity: latency, timed from
  each request's due time, and how late the generator ran.

Load comes from this process alone: the calling thread (and, in the
open phase, one collector thread) over one connection.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List

import numpy as np

import layers
from common import (
    Ledger,
    NullTracer,
    Tracer,
    closed_loop,
    time_matmul,
    median,
    now,
    own_peak_rss_mib,
    p99_supported,
    pctl,
    pid_peak_rss_mib,
)
from repro import dgefmm
from repro.api import GemmClient, pack_message, unpack_message
from repro.api.protocol import (
    WSFrameAssembler,
    array_payload,
    gemm_request_header,
    ws_encode_frame,
)
from repro.core.config import GemmConfig
from repro.errors import ReproError
from repro.plan import compile_plan, signature_for
from spec import zero_layers

#: (order, dtype, beta) of one repeating cycle; small shapes recur more
MIX = (
    (16, "float64", 0.0), (32, "float64", 0.0), (16, "float64", 0.0),
    (48, "float32", 0.0), (64, "float64", 0.5), (32, "float64", 0.0),
    (96, "float64", 0.0), (16, "float64", 0.0), (128, "float32", 0.0),
    (48, "float32", 0.0), (64, "float64", 0.5), (32, "float64", 0.0),
    (160, "float64", 0.5), (96, "float64", 0.0), (192, "float64", 0.0),
)
#: operand sets per signature (results are checked against each one's
#: own reference)
VARIANTS = 2
#: requests in flight in the closed-loop phase
WINDOW = 4
#: closed-loop slice between np.matmul yardstick bursts
SLICE_S = 1.0
#: share of the run in the closed-loop phase; the rest is open loop
CLOSED_SHARE = 2 / 3
#: offered rate of the open-loop phase, req/s: about half the capacity
#: the closed loop measured on a 2-vCPU host when this was written
RATE = 30.0
#: a request sent in the open phase meets its objective when it is
#: verified within this many ms of its due time
SLO_MS = 50.0
#: server set-ups per run; the median is reported
SETUPS = 3
RESULT_TIMEOUT_S = 60.0


def _requests(seed: int) -> List[Dict[str, Any]]:
    """Operands and dgefmm references per mix slot."""
    rng = np.random.default_rng(seed)
    sets: Dict[tuple, List[Dict[str, Any]]] = {}
    for sig in sorted(set(MIX)):
        n, dtype, beta = sig
        sets[sig] = []
        for _ in range(VARIANTS):
            a = np.asfortranarray(rng.standard_normal((n, n)), dtype=dtype)
            b = np.asfortranarray(rng.standard_normal((n, n)), dtype=dtype)
            c = (np.asfortranarray(rng.standard_normal((n, n)), dtype=dtype)
                 if beta else None)
            ref = (np.array(c, copy=True) if beta
                   else np.zeros((n, n), dtype=dtype, order="F"))
            dgefmm(a, b, ref, 1.0, beta)
            sets[sig].append({"sig": sig, "a": a, "b": b, "c": c,
                              "beta": beta, "ref": ref,
                              "flops": 2.0 * n ** 3,
                              "prod": np.empty((n, n), dtype=dtype)})
    cycle = []
    for v in range(VARIANTS):
        cycle.extend(sets[sig][v] for sig in MIX)
    return cycle


class Server:
    """``python -m repro api serve`` in its own process group."""

    def __init__(self, workers: int) -> None:
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "api", "serve", "--port", "0",
             "--workers", str(workers), "--threads", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, start_new_session=True,
        )
        line = self.proc.stdout.readline()
        found = re.search(r"http://[\d.]+:(\d+) ", line)
        if found is None:
            self.stop()
            raise RuntimeError(f"api server did not start: {line!r}")
        self.port = int(found.group(1))

    def peak_rss_mib(self, worker_pids: List[int]) -> float:
        return sum(pid_peak_rss_mib(pid)
                   for pid in [self.proc.pid] + worker_pids)

    def stop(self) -> int:
        """Drain on SIGINT; kill the whole group if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()
        return self.proc.returncode


def _submit(client, r, tracer, req):
    with tracer.span("api.submit", req=req):
        return client.submit(r["a"], r["b"], r["c"], 1.0, r["beta"])


def _collect(fut, r, ledger: Ledger, tracer, req) -> bool:
    try:
        with tracer.span("api.result", req=req):
            got = fut.result(timeout=RESULT_TIMEOUT_S)
    except ReproError as exc:
        ledger.miss(f"{r['sig']}: {type(exc).__name__}: {exc}")
        return False
    return ledger.check_equal(got, r["ref"], str(r["sig"]))


def _setup(cycle, workers: int, ledger: Ledger):
    """Spawn the server, connect, and make one call per signature."""
    t0 = now()
    server = Server(workers)
    try:
        client = GemmClient("127.0.0.1", server.port)
        seen = set()
        for r in cycle:
            if r["sig"] not in seen:
                seen.add(r["sig"])
                _collect(_submit(client, r, NullTracer(), None), r, ledger,
                         NullTracer(), None)
    except BaseException:
        server.stop()
        raise
    return now() - t0, server, client


def _closed(client, cycle, seconds, ledger, tracer, start: int):
    """Capacity: WINDOW requests in flight, in drained slices."""

    def submit(i: int):
        r = cycle[i % len(cycle)]
        try:
            return r, _submit(client, r, tracer, i), i
        except ReproError as exc:
            ledger.miss(f"{r['sig']}: {type(exc).__name__}: {exc}")
            return None

    def collect(handle):
        if handle is None:
            return None
        r, fut, i = handle
        return (r, fut) if _collect(fut, r, ledger, tracer, i) else None

    return closed_loop(
        submit, collect,
        lambda d: time_matmul(d[0]["a"], d[0]["b"], d[0]["prod"]),
        WINDOW, seconds, SLICE_S, start)


def _open(client, cycle, seconds, ledger, tracer, start: int):
    """Latency at RATE req/s, timed from due time; the generator's lag.

    The calling thread sends on schedule; one collector thread waits for
    the replies in send order.  A reply is observed when it and every
    earlier one have arrived.
    """
    sent_q: queue.SimpleQueue = queue.SimpleQueue()
    samples: List[tuple] = []
    lags: List[float] = []
    total = int(seconds * RATE)

    def collector() -> None:
        while True:
            item = sent_q.get()
            if item is None:
                return
            r, fut, due, sent, req = item
            ok = _collect(fut, r, ledger, tracer, req)
            t = now()
            samples.append((ok, t - due, t - sent, fut, r))

    worker = threading.Thread(target=collector, name="perfbench-collector")
    worker.start()
    t0 = now()
    try:
        for j in range(total):
            due = t0 + j / RATE
            pause = due - now()
            if pause > 0:
                time.sleep(pause)
            sent = now()
            lags.append(max(0.0, sent - due))
            r = cycle[(start + j) % len(cycle)]
            try:
                fut = _submit(client, r, tracer, start + j)
            except ReproError as exc:
                ledger.miss(f"{r['sig']}: {type(exc).__name__}: {exc}")
                samples.append((False, float("inf"), 0.0, None, r))
                continue
            sent_q.put((r, fut, due, sent, start + j))
    finally:
        sent_q.put(None)
        worker.join()
    return {"samples": samples, "lags": lags, "sent": total,
            "next": start + total}


def _shards(stats: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [s for s in stats["shards"] if "service" in s]


def _server_totals(stats: Dict[str, Any]) -> Dict[str, Any]:
    """Sums over shards of the counters the per-layer metrics read."""
    tot: Dict[str, Any] = {"kernel_calls": {}, "mul": 0.0, "add": 0.0,
                           "completed": 0, "rejected": 0, "shed": 0,
                           "timeouts": 0, "new_buffer_bytes": 0,
                           "requests": stats["frontend"]["requests_total"],
                           "bytes": (stats["frontend"]["bytes_in"]
                                     + stats["frontend"]["bytes_out"]),
                           "per_shard": []}
    for s in _shards(stats):
        svc = s["service"]
        for k, v in svc["work"]["kernel_calls"].items():
            tot["kernel_calls"][k] = tot["kernel_calls"].get(k, 0) + v
        tot["mul"] += svc["work"]["mul_flops"]
        tot["add"] += svc["work"]["add_flops"]
        cnt = svc["counters"]
        tot["completed"] += cnt["requests_completed"]
        tot["rejected"] += cnt["requests_rejected"] + s["gate"]["rejected"]
        tot["shed"] += cnt["requests_shed"] + s["gate"]["shed"]
        tot["timeouts"] += cnt["requests_timeout"]
        tot["new_buffer_bytes"] += svc["pool"]["new_buffer_bytes"]
        pc = svc["plan_cache"]
        tot["per_shard"].append((s["routed"], pc["hits"], pc["misses"],
                                 pc["evictions"]))
    return tot


def _phases(client, cycle, seconds, ledger, tracer):
    closed = _closed(client, cycle, seconds * CLOSED_SHARE, ledger, tracer, 0)
    opened = _open(client, cycle, seconds * (1 - CLOSED_SHARE), ledger,
                   tracer, closed["next"])
    return closed, opened


def _end_to_end(closed, opened, setups, rss) -> Dict[str, float]:
    done = closed["done"]
    lat = [s[1] for s in opened["samples"]]
    return {
        "setup_s": median(setups),
        "throughput_rps": len(done) / closed["elapsed"],
        "latency_p50_ms": 1e3 * median(lat),
        "gflops": sum(d[0]["flops"] for d in done) / closed["elapsed"] / 1e9,
        "speedup_vs_matmul": closed["mm_s"] / closed["elapsed"],
        "peak_rss_mb": rss,
    }


def _notes(closed, opened) -> List[tuple]:
    lat = [s[1] * 1e3 for s in opened["samples"]]
    met = sum(1 for ok, since_due, *_rest in opened["samples"]
              if ok and since_due * 1e3 <= SLO_MS)
    notes = [("open_requests", len(lat), "count", opened["sent"]),
             ("slo_met_share", met / max(1, opened["sent"]), "fraction",
              opened["sent"]),
             ("gen.lag_ms_p99", 1e3 * pctl(opened["lags"], 99), "ms",
              len(opened["lags"]))]
    if p99_supported(len(lat)):
        notes.append(("latency_p99_ms", pctl(lat, 99), "ms", len(lat)))
    return notes


def _decode_ms(cycle, tracer) -> float:
    """Median feed + unpack time of the workload's own request frames."""
    times = []
    for i, r in enumerate(cycle):
        n = r["a"].shape[0]
        payloads = [array_payload(r["a"]), array_payload(r["b"])]
        if r["c"] is not None:
            payloads.append(array_payload(r["c"]))
        header = gemm_request_header(
            i, n, n, n, beta=r["beta"], dtype=str(r["a"].dtype),
            has_c=r["c"] is not None)
        frame = ws_encode_frame(0x2, pack_message(header, payloads),
                                mask=True)
        t0 = now()
        with tracer.span("api.decode", req=i):
            for _opcode, message in WSFrameAssembler().feed(frame):
                unpack_message(message)
        times.append(now() - t0)
    return 1e3 * median(times)


def _layers(cycle, closed, opened, before, after, tracer) -> Dict[str, float]:
    futs = [d[1] for d in closed["done"]] + [
        s[3] for s in opened["samples"] if s[0]]
    n_req = max(1, after["completed"] - before["completed"])
    kc = {k: v - before["kernel_calls"].get(k, 0)
          for k, v in after["kernel_calls"].items()}
    per = layers.class_calls(kc)

    weights: Dict[tuple, int] = {}
    for r, *_rest in closed["done"]:
        weights[r["sig"]] = weights.get(r["sig"], 0) + 1
    for ok, *_rest, r in opened["samples"]:
        if ok:
            weights[r["sig"]] = weights.get(r["sig"], 0) + 1
    plans, operands = {}, {}
    for r in cycle:
        sig = r["sig"]
        if sig not in plans:
            n, dtype, beta = sig
            plans[sig] = compile_plan(signature_for(
                "serial", n, n, n, False, False, False, beta == 0.0, dtype,
                GemmConfig()))
            operands[sig] = (r["a"], r["b"], 1.0, beta)
    replay = layers.layer_seconds(plans, weights, operands, tracer,
                                  repeats=3)
    facts = {sig: layers.plan_facts(p) for sig, p in plans.items()}
    blas_s = sum(replay["mean_s"].values())

    lookups = hits = evict = 0
    rates, routed = [], []
    for (r0, h0, m0, e0), (r1, h1, m1, e1) in zip(before["per_shard"],
                                                  after["per_shard"]):
        dh, dm = h1 - h0, m1 - m0
        hits, lookups, evict = hits + dh, lookups + dh + dm, evict + e1 - e0
        rates.append(dh / max(1, dh + dm))
        routed.append(r1 - r0)
    wait = [1e3 * f.wait_s for f in futs]
    compute = [1e3 * f.compute_s for f in futs]
    transport = [1e3 * (since_sent - f.wait_s - f.compute_s)
                 for ok, _due, since_sent, f, _r in opened["samples"] if ok]
    metrics = zero_layers()
    metrics.update({
        "blas.gemm_calls": per["gemm"] / n_req,
        "blas.gemm_s": replay["mean_s"]["gemm"],
        "blas.gemm_gflops": replay["gemm_gflops"],
        "blas.addsub_calls": per["addsub"] / n_req,
        "blas.addsub_s": replay["mean_s"]["addsub"],
        "blas.addsub_bytes": layers.weighted_mean(facts, weights,
                                                  "addsub_bytes"),
        "blas.fixup_calls": per["fixup"] / n_req,
        "blas.fixup_s": replay["mean_s"]["fixup"],
        "blas.mul_flops": (after["mul"] - before["mul"]) / n_req,
        "blas.add_flops": (after["add"] - before["add"]) / n_req,
        "plan.compile_ms_p50": replay["compile_ms_p50"],
        "plan.ops": layers.weighted_mean(facts, weights, "ops"),
        "plan.cache_hit_rate": hits / max(1, lookups),
        "plan.cache_evictions": evict / n_req,
        "plan.pack_bytes": layers.weighted_mean(facts, weights,
                                                "pack_bytes"),
        "plan.dispatch_s": sum(compute) / len(compute) / 1e3 - blas_s,
        "core.workspace_peak_bytes": max(f["charge_bytes"]
                                         for f in facts.values()),
        "core.pool_new_buffer_bytes": (after["new_buffer_bytes"]
                                       - before["new_buffer_bytes"]),
        "serve.wait_ms_p50": median(wait),
        "serve.wait_ms_p99": pctl(wait, 99),
        "serve.compute_ms_p50": median(compute),
        "serve.batch_size_mean": sum(f.batch_size or 0 for f in futs)
        / len(futs),
        "serve.rejected": after["rejected"] - before["rejected"],
        "serve.shed": after["shed"] - before["shed"],
        "serve.timeouts": after["timeouts"] - before["timeouts"],
        "api.encode_ms_p50": 1e3 * median(tracer.durations("api.submit")),
        "api.decode_ms_p50": _decode_ms(cycle, tracer),
        "api.wire_bytes_per_req": (after["bytes"] - before["bytes"])
        / max(1, after["requests"] - before["requests"]),
        "api.transport_ms_p50": median(transport),
        "api.shard_hit_rate_min": min(rates),
        "api.shard_imbalance": max(routed) / (sum(routed) / len(routed)),
        "gen.lag_ms_p99": 1e3 * pctl(opened["lags"], 99),
    })
    return metrics


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    workers = os.cpu_count() or 1
    cycle = _requests(seed)
    ledger = Ledger()
    setups: List[float] = []
    server = client = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                client.close()
                server.stop()
                server = client = None
            t, server, client = _setup(cycle, workers, ledger)
            setups.append(t)
        if trace:
            plain = _phases(client, cycle, seconds / 2, ledger, NullTracer())
            before = _server_totals(client.stats())
            tracer = Tracer()
            closed, opened = _phases(client, cycle, seconds / 2, ledger,
                                     tracer)
        else:
            tracer = NullTracer()
            closed, opened = _phases(client, cycle, seconds, ledger, tracer)
        stats = client.stats()
        after = _server_totals(stats)
        pids = [w["pid"] for w in stats["health"]["workers"]]
        rss = own_peak_rss_mib() + server.peak_rss_mib(pids)
        for s in stats["shards"]:
            ledger.invariant(s["arena"]["leases_outstanding"] == 0,
                             f"shard {s['shard']} leases outstanding")
            ledger.invariant(
                s.get("service", {}).get("pool", {}).get("outstanding", 0)
                == 0, f"shard {s['shard']} pool arenas outstanding")
    finally:
        if server is not None:
            client.close()
            code = server.stop()
    ledger.invariant(code == 0, f"api server exited with {code}")
    notes = _notes(closed, opened)
    if not trace:
        return {"ledger": ledger, "notes": notes,
                "metrics": _end_to_end(closed, opened, setups, rss),
                "samples": len(closed["done"])}
    metrics = _layers(cycle, closed, opened, before, after, tracer)
    metrics["api.leases_outstanding"] = sum(
        s["arena"]["leases_outstanding"] for s in stats["shards"])
    metrics["serve.queue_depth_p99"] = max(
        s["service"]["histograms"]["queue_depth"]["p99"]
        for s in _shards(stats))
    untraced = plain[0]["elapsed"] / len(plain[0]["done"])
    traced = closed["elapsed"] / len(closed["done"])
    metrics["trace.overhead_share"] = traced / untraced - 1.0
    client_ms = median([1e3 * s[2] for s in opened["samples"] if s[0]])
    notes += [("encode_wait_compute_ms_p50", metrics["api.encode_ms_p50"]
               + metrics["serve.wait_ms_p50"]
               + metrics["serve.compute_ms_p50"], "ms", len(opened["lags"])),
              ("client_latency_ms_p50", client_ms, "ms", len(opened["lags"]))]
    return {"ledger": ledger, "notes": notes, "metrics": metrics,
            "tracer": tracer}
