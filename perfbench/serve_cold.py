"""``serve_cold``: an in-process ``GemmService`` on never-warm signatures.

96 distinct odd or rectangular shapes in 150..400, each with its own
small cutoff (``min(m, k, n) // 8 + 1``: exactly three recursion levels
and about 1.4k plan ops per request), are submitted in a fixed cycle.
The service's plan cache holds 64 plans, so under LRU every request
misses and compiles.  Half the requests have beta != 0.  One caller
keeps at most ``nproc`` requests in flight; the service runs its
default configuration.  No network is involved.  Between 2-second
slices of load, with nothing in flight, the caller times ``np.matmul``
on each completed request's operands: the yardstick of
``speedup_vs_matmul``.
"""

from __future__ import annotations

import os
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
)
from repro import GemmService, SimpleCutoff, dgefmm
from repro.core.config import GemmConfig
from repro.errors import ReproError
from repro.plan import compile_plan, signature_for
from spec import zero_layers

#: distinct signatures per cycle: more than PlanCache's default 64 plans
N_SIGNATURES = 96
LOW, HIGH = 150, 400
#: service set-ups per run; the median is reported
SETUPS = 9
#: the set-up call's shape lies outside the measured range
WARM_SHAPE = (127, 129, 131)
RESULT_TIMEOUT_S = 60.0
#: closed-loop slice between np.matmul yardstick bursts
SLICE_S = 2.0


def _shapes(rng: np.random.Generator) -> List[tuple]:
    """Stratified draws: each dimension covers LOW..HIGH evenly per seed,
    so the work in a cycle varies little from seed to seed."""
    span = HIGH - LOW + 1
    dims = [LOW + ((rng.permutation(N_SIGNATURES)
                    + rng.random(N_SIGNATURES)) * span
                   / N_SIGNATURES).astype(int) for _ in range(3)]
    seen, out = set(), []
    for m, k, n in zip(*dims):
        m, k, n = int(m), int(k), int(n)
        while (m, k, n) in seen or m == k == n and m % 2 == 0:
            n = LOW + (n - LOW + 1) % span
        seen.add((m, k, n))
        out.append((m, k, n))
    return out


def _requests(seed: int) -> List[Dict[str, Any]]:
    """Operands and dgefmm references, one per request."""
    rng = np.random.default_rng(seed)
    out = []
    for i, (m, k, n) in enumerate(_shapes(rng)):
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        beta = 0.5 if i % 2 else 0.0
        c = np.asfortranarray(rng.standard_normal((m, n))) if beta else None
        cutoff = SimpleCutoff(min(m, k, n) // 8 + 1)
        ref = (np.array(c, copy=True) if beta
               else np.zeros((m, n), order="F"))
        dgefmm(a, b, ref, 1.0, beta, cutoff=cutoff)
        out.append({"shape": (m, k, n), "a": a, "b": b, "c": c,
                    "beta": beta, "cutoff": cutoff, "ref": ref,
                    "flops": 2.0 * m * k * n, "prod": np.empty((m, n))})
    return out


def _setup() -> tuple:
    """Service start plus one call."""
    m, k, n = WARM_SHAPE
    a, b = np.ones((m, k), order="F"), np.ones((k, n), order="F")
    t0 = now()
    svc = GemmService()
    svc.call(a, b, cutoff=SimpleCutoff(16))
    return now() - t0, svc


def _measure(svc, reqs, seconds, ledger: Ledger, tracer, start: int):
    """Closed loop, at most nproc requests in flight, in drained slices."""

    def submit(i: int):
        r = reqs[i % len(reqs)]
        t_sub = now()
        try:
            with tracer.span("serve.submit", req=i):
                fut = svc.submit(r["a"], r["b"], r["c"], 1.0, r["beta"],
                                 cutoff=r["cutoff"])
        except ReproError as exc:
            ledger.miss(f"{r['shape']}: {type(exc).__name__}: {exc}")
            return None
        return r, fut, t_sub, i

    def collect(handle):
        if handle is None:
            return None
        r, fut, t_sub, i = handle
        try:
            with tracer.span("serve.result", req=i):
                got = fut.result(RESULT_TIMEOUT_S)
        except ReproError as exc:
            ledger.miss(f"{r['shape']}: {type(exc).__name__}: {exc}")
            return None
        latency = now() - t_sub
        if ledger.check_equal(got, r["ref"], str(r["shape"])):
            return r, latency
        return None

    return closed_loop(
        submit, collect,
        lambda d: time_matmul(d[0]["a"], d[0]["b"], d[0]["prod"]),
        os.cpu_count() or 1, seconds, SLICE_S, start)


def _end_to_end(s, setups) -> Dict[str, float]:
    done, elapsed = s["done"], s["elapsed"]
    return {
        "setup_s": median(setups),
        "throughput_rps": len(done) / elapsed,
        "latency_p50_ms": 1e3 * median([d[1] for d in done]),
        "gflops": sum(d[0]["flops"] for d in done) / elapsed / 1e9,
        "speedup_vs_matmul": s["mm_s"] / elapsed,
        "peak_rss_mb": own_peak_rss_mib(),
    }


def _notes(s) -> List[tuple]:
    lat = [1e3 * d[1] for d in s["done"]]
    notes = []
    if p99_supported(len(lat)):
        notes.append(("latency_p99_ms", pctl(lat, 99), "ms", len(lat)))
    return notes


def _signature(r: Dict[str, Any]):
    m, k, n = r["shape"]
    return signature_for("serial", m, k, n, False, False, False,
                         r["beta"] == 0.0, "float64",
                         GemmConfig(cutoff=r["cutoff"]))


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    reqs = _requests(seed)
    ledger = Ledger()
    setups: List[float] = []
    svc = None
    try:
        for _ in range(SETUPS):
            if svc is not None:
                svc.close()
            t, svc = _setup()
            setups.append(t)
        if not trace:
            s = _measure(svc, reqs, seconds, ledger, NullTracer(), 0)
        else:
            plain = _measure(svc, reqs, seconds / 2, ledger, NullTracer(), 0)
            before = svc.stats()
            tracer = Tracer()
            s = _measure(svc, reqs, seconds / 2, ledger, tracer,
                         plain["next"])
            after = svc.stats()
    finally:
        if svc is not None:
            svc.close()
    ledger.invariant(svc.pool.outstanding == 0, "pool arenas outstanding")
    if not trace:
        return {"ledger": ledger, "notes": _notes(s),
                "metrics": _end_to_end(s, setups),
                "samples": len(s["done"])}

    n_req = len(s["done"])
    weights: Dict[int, int] = {}
    for r, *_rest in s["done"]:
        weights[id(r)] = weights.get(id(r), 0) + 1
    used = {id(r): r for r, *_rest in s["done"]}
    plans = {key: compile_plan(_signature(r)) for key, r in used.items()}
    operands = {key: (r["a"], r["b"], 1.0, r["beta"])
                for key, r in used.items()}
    replay = layers.layer_seconds(plans, weights, operands, tracer)
    facts = {key: layers.plan_facts(p) for key, p in plans.items()}
    blas_s = sum(replay["mean_s"].values())

    kc0, kc1 = before["work"]["kernel_calls"], after["work"]["kernel_calls"]
    per = layers.class_calls({k: v - kc0.get(k, 0) for k, v in kc1.items()})
    pc0, pc1 = before["plan_cache"], after["plan_cache"]
    lookups = (pc1["hits"] + pc1["misses"]) - (pc0["hits"] + pc0["misses"])
    hit_rate = (pc1["hits"] - pc0["hits"]) / max(1, lookups)
    h0, h1 = before["histograms"], after["histograms"]
    compute_s = ((h1["compute_ms"]["sum"] - h0["compute_ms"]["sum"])
                 / max(1, h1["compute_ms"]["count"]
                       - h0["compute_ms"]["count"]) / 1e3)
    cnt0, cnt1 = before["counters"], after["counters"]
    untraced = plain["elapsed"] / len(plain["done"])
    traced = s["elapsed"] / n_req
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
        "blas.mul_flops": (after["work"]["mul_flops"]
                           - before["work"]["mul_flops"]) / n_req,
        "blas.add_flops": (after["work"]["add_flops"]
                           - before["work"]["add_flops"]) / n_req,
        "plan.compile_ms_p50": replay["compile_ms_p50"],
        "plan.ops": layers.weighted_mean(facts, weights, "ops"),
        "plan.cache_hit_rate": hit_rate,
        "plan.cache_evictions": (pc1["evictions"] - pc0["evictions"])
        / n_req,
        "plan.pack_bytes": layers.weighted_mean(facts, weights,
                                                "pack_bytes"),
        "plan.dispatch_s": compute_s - blas_s
        - (1.0 - hit_rate) * replay["compile_ms_p50"] / 1e3,
        "core.workspace_peak_bytes": max(f["charge_bytes"]
                                         for f in facts.values()),
        "core.pool_new_buffer_bytes": (after["pool"]["new_buffer_bytes"]
                                       - before["pool"]["new_buffer_bytes"]),
        "serve.wait_ms_p50": h1["wait_ms"]["p50"],
        "serve.wait_ms_p99": h1["wait_ms"]["p99"],
        "serve.compute_ms_p50": h1["compute_ms"]["p50"],
        "serve.batch_size_mean": h1["batch_size"]["mean"],
        "serve.queue_depth_p99": h1["queue_depth"]["p99"],
        "serve.rejected": cnt1["requests_rejected"]
        - cnt0["requests_rejected"],
        "serve.shed": cnt1["requests_shed"] - cnt0["requests_shed"],
        "serve.timeouts": cnt1["requests_timeout"]
        - cnt0["requests_timeout"],
        "trace.overhead_share": traced / untraced - 1.0,
    })
    return {"ledger": ledger, "notes": _notes(s), "metrics": metrics,
            "tracer": tracer}
