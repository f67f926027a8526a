"""``large_fused``: fused DGEFMM against ``np.matmul`` on large operands.

One in-process caller, closed loop.  Each round calls ``dgefmm`` once
per shape with a warm ``PlanCache`` and ``WorkspacePool``, and each call
is paired with ``np.matmul`` on the same operands; the pair's order
alternates by round so neither side always runs with warmer caches.
Kernels, block adds and packs do the work; serving, the network and
plan compilation do none.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

import layers
from common import Ledger, NullTracer, Tracer, median, now, own_peak_rss_mib
from repro import (
    ExecutionContext,
    PlanCache,
    SimpleCutoff,
    WorkspacePool,
    dgefmm,
)
from repro.core.config import GemmConfig
from repro.core.stability import normwise_bound
from repro.plan import execute_plan, signature_for
from spec import zero_layers

#: 1024^3, an odd 2047^3 (peeling at both levels) and a rectangle
SHAPES = ((1024, 1024, 1024), (2047, 2047, 2047), (2048, 1024, 1536))
#: one level at 1024^3 (512 <= 600), two at 2047^3 (1023 > 600 >= 511)
CUTOFF = SimpleCutoff(600)
CONFIG = dict(cutoff=CUTOFF, backend="vendor", fuse=True)
#: set-ups per run; the median is reported
SETUPS = 3


def _operands(seed: int) -> List[tuple]:
    rng = np.random.default_rng(seed)
    out = []
    for m, k, n in SHAPES:
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        out.append((a, b, np.zeros((m, n), order="F"),
                    np.zeros((m, n), order="F")))
    return out


def _plan(cache: PlanCache, m: int, k: int, n: int):
    sig = signature_for("serial", m, k, n, False, False, False, True,
                        "float64", GemmConfig(**CONFIG))
    plan = cache.peek(sig)
    if plan is None:
        raise RuntimeError(f"no cached plan for {(m, k, n)}")
    return plan


def _check(c, r, bound: float, shape: tuple, ledger: Ledger) -> None:
    """DGEFMM's result within the Winograd normwise bound of np.matmul's."""
    err = float(np.max(np.abs(c - r)))
    if err <= bound:
        ledger.ok()
    else:
        ledger.miss(f"{shape}: error {err:.3g} above bound {bound:.3g}")


def _setup(ops: List[tuple]):
    """Fresh cache and pool, then the first call per shape."""
    cache, pool = PlanCache(), WorkspacePool()
    t0 = now()
    for a, b, c, _r in ops:
        dgefmm(a, b, c, plan_cache=cache, pool=pool, **CONFIG)
    return now() - t0, cache, pool


def _measure(ops, bounds, cache, pool, seconds: float, ledger: Ledger,
             tracer, plans=None) -> Dict[str, Any]:
    """Rounds over all shapes until ``seconds`` of wall time have passed.

    With ``plans`` (traced run) each dgefmm call is followed, outside
    its span, by a kernel replay of its plan, so the call and its
    kernel seconds are taken under the same host conditions.
    """
    flops = [2.0 * m * k * n for m, k, n in SHAPES]
    rounds: List[tuple] = []
    calls: List[float] = []
    tallies = {"gemm": 0, "addsub": 0, "fixup": 0, "mul": 0.0, "add": 0.0,
               "peak": 0}
    replayed = {"gemm": 0.0, "addsub": 0.0, "fixup": 0.0}
    cache0, pool0 = cache.stats(), pool.new_buffer_bytes
    deadline = now() + seconds
    while not rounds or now() < deadline:
        t_dg = t_mm = 0.0
        for i, (a, b, c, r) in enumerate(ops):
            ctx = ExecutionContext()
            pair = []
            for side in (("dgefmm", "matmul") if len(rounds) % 2 == 0
                         else ("matmul", "dgefmm")):
                t0 = now()
                if side == "dgefmm":
                    with tracer.span("dgefmm", req=f"{len(rounds)}.{i}"):
                        dgefmm(a, b, c, plan_cache=cache, pool=pool,
                               ctx=ctx, **CONFIG)
                else:
                    np.matmul(a, b, out=r)
                pair.append((side, now() - t0))
            dt = dict(pair)
            t_dg += dt["dgefmm"]
            t_mm += dt["matmul"]
            calls.append(dt["dgefmm"])
            _check(c, r, bounds[i], SHAPES[i], ledger)
            per = layers.class_calls(ctx.kernel_calls)
            for cls in per:
                tallies[cls] += per[cls]
            tallies["mul"] += ctx.mul_flops
            tallies["add"] += ctx.add_flops
            tallies["peak"] = max(tallies["peak"],
                                  ctx.stats.get("workspace_peak_bytes", 0))
            if plans is not None:
                secs = layers.replay_kernels(plans[i], a, b, 1.0, 0.0,
                                             tracer, req=f"{len(rounds)}.{i}")
                for cls in replayed:
                    replayed[cls] += secs[cls]
        rounds.append((t_dg, t_mm))
    cache1 = cache.stats()
    lookups = (cache1["hits"] + cache1["misses"]
               - cache0["hits"] - cache0["misses"])
    return {
        "rounds": rounds, "calls": calls, "tallies": tallies,
        "replayed": replayed,
        "hit_rate": (cache1["hits"] - cache0["hits"]) / max(1, lookups),
        "evictions": cache1["evictions"] - cache0["evictions"],
        "new_buffer_bytes": pool.new_buffer_bytes - pool0,
        "flops_per_round": sum(flops),
    }


def _end_to_end(s: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    rounds = s["rounds"]
    return {
        "setup_s": median(setups),
        "throughput_rps": median([len(SHAPES) / t for t, _ in rounds]),
        "latency_p50_ms": 1e3 * median(s["calls"]),
        "gflops": median([s["flops_per_round"] / t / 1e9
                          for t, _ in rounds]),
        "speedup_vs_matmul": median([mm / t for t, mm in rounds]),
        "peak_rss_mb": own_peak_rss_mib(),
    }


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    ops = _operands(seed)
    setups: List[float] = []
    cache = pool = None
    for _ in range(SETUPS):
        cache = pool = None
        t, cache, pool = _setup(ops)
        setups.append(t)
    bounds = []
    for (m, k, n), (a, b, _c, _r) in zip(SHAPES, ops):
        plan = _plan(cache, m, k, n)
        base = max(max(s) for s in plan.counts["base_shapes"])
        bounds.append(normwise_bound(a, b, plan.counts["max_depth"], base))

    ledger = Ledger()
    if not trace:
        s = _measure(ops, bounds, cache, pool, seconds, ledger, NullTracer())
        ledger.invariant(pool.outstanding == 0, "pool arenas outstanding")
        return {"ledger": ledger, "metrics": _end_to_end(s, setups),
                "samples": len(s["calls"])}

    plain = _measure(ops, bounds, cache, pool, seconds / 2, ledger,
                     NullTracer())
    tracer = Tracer()
    plans = [_plan(cache, *shape) for shape in SHAPES]
    s = _measure(ops, bounds, cache, pool, seconds / 2, ledger, tracer,
                 plans)
    ledger.invariant(pool.outstanding == 0, "pool arenas outstanding")

    n_calls = len(s["calls"])
    blas = {cls: v / n_calls for cls, v in s["replayed"].items()}
    blas_s = sum(blas.values())
    facts = {shape: layers.plan_facts(p) for shape, p in zip(SHAPES, plans)}
    weights = {shape: len(s["rounds"]) for shape in SHAPES}
    compiles = [layers.time_compile(p.signature, tracer) for p in plans]
    for i, (plan, (a, b, c, r)) in enumerate(zip(plans, ops)):
        with tracer.span("plan.get_or_compile"):
            cache.get_or_compile(plan.signature)
        with tracer.span("plan.execute_plan"):
            execute_plan(plan, a, b, c, 1.0, 0.0, ctx=ExecutionContext(),
                         pool=pool)
        _check(c, r, bounds[i], SHAPES[i], ledger)
    gemm_flops = sum(f["gemm_flops"] for f in facts.values())
    t = s["tallies"]
    dgefmm_s = sum(s["calls"]) / n_calls
    untraced = sum(plain["calls"]) / len(plain["calls"])
    metrics = zero_layers()
    metrics.update({
        "blas.gemm_calls": t["gemm"] / n_calls,
        "blas.gemm_s": blas["gemm"],
        "blas.gemm_gflops": gemm_flops * len(s["rounds"])
        / s["replayed"]["gemm"] / 1e9,
        "blas.addsub_calls": t["addsub"] / n_calls,
        "blas.addsub_s": blas["addsub"],
        "blas.addsub_bytes": layers.weighted_mean(facts, weights,
                                                  "addsub_bytes"),
        "blas.fixup_calls": t["fixup"] / n_calls,
        "blas.fixup_s": blas["fixup"],
        "blas.mul_flops": t["mul"] / n_calls,
        "blas.add_flops": t["add"] / n_calls,
        "plan.compile_ms_p50": 1e3 * median(compiles),
        "plan.ops": layers.weighted_mean(facts, weights, "ops"),
        "plan.cache_hit_rate": s["hit_rate"],
        "plan.cache_evictions": s["evictions"] / n_calls,
        "plan.pack_bytes": layers.weighted_mean(facts, weights,
                                                "pack_bytes"),
        "plan.dispatch_s": dgefmm_s - blas_s,
        "core.workspace_peak_bytes": t["peak"],
        "core.pool_new_buffer_bytes": (plain["new_buffer_bytes"]
                                       + s["new_buffer_bytes"]),
        "trace.overhead_share": dgefmm_s / untraced - 1.0,
    })
    return {
        "ledger": ledger, "metrics": metrics, "tracer": tracer,
        "notes": [("dgefmm_span_s", dgefmm_s, "s", n_calls),
                  ("blas_replay_sum_s", blas_s, "s", n_calls)],
    }

