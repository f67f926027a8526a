"""Per-layer replays for the traced run.

Spans may only be recorded in the benchmark's own code, so the seconds a
plan spends in each ``repro.blas`` kernel class come from replaying that
plan's op stream, shape for shape and call for call, through the public
kernels.  Each class runs back to back inside one span; replay results
are discarded.  Bytes are computed from array shapes, never measured.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from common import Tracer, median, now
from repro.blas.addsub import kernels_for
from repro.blas.level3 import dgemm
from repro.context import ExecutionContext
from repro.core.peeling import apply_fixups, apply_fixups_head
from repro.plan import ExecutionPlan, compile_plan
from repro.plan.ops import (
    OP_ACCUM,
    OP_AXPBY,
    OP_FIXUP,
    OP_GEMM,
    OP_MADD,
    OP_MSUB,
    ROOT_TEMP,
)

#: kernel names the program charges, grouped into the benchmark's classes
CLASS_KERNELS = {
    "gemm": ("dgemm",),
    "addsub": ("madd", "msub", "axpby", "accum"),
    "fixup": ("dger", "dgemv"),
}
_OP_CLASS = {OP_GEMM: "gemm", OP_MADD: "addsub", OP_MSUB: "addsub",
             OP_ACCUM: "addsub", OP_AXPBY: "addsub", OP_FIXUP: "fixup"}
#: position of the written region in each block add/sub op
_ADDSUB_OUT = {OP_MADD: 3, OP_MSUB: 3, OP_ACCUM: 2, OP_AXPBY: 4}


def class_calls(kernel_calls: Dict[str, int]) -> Dict[str, int]:
    """Kernel tallies (``ExecutionContext.kernel_calls``) per class."""
    return {cls: sum(int(kernel_calls.get(k, 0)) for k in names)
            for cls, names in CLASS_KERNELS.items()}


def plan_facts(plan: ExecutionPlan) -> Dict[str, float]:
    """Computed, repeatable facts of one plan.

    ``addsub_bytes`` counts two operand reads and one write per element
    of every block add/sub; ``pack_bytes`` counts the operand copies
    into the fused program's batch buffers (groups of depth > 1);
    ``gemm_flops`` is 2mkn summed over the base products.
    """
    item = plan.dtype.itemsize
    addsub_bytes = gemm_flops = 0
    for op in plan.ops_quiet:
        if op[0] in _ADDSUB_OUT:
            rows, cols = plan.regions[op[_ADDSUB_OUT[op[0]]]][6:8]
            addsub_bytes += 3 * rows * cols * item
        elif op[0] == OP_GEMM:
            m, k = plan.regions[op[1]][6:8]
            n = plan.regions[op[2]][7]
            gemm_flops += 2 * m * k * n
    pack_bytes = 0
    if plan.fused is not None:
        for g in plan.fused.groups:
            d, m, k, n = g[:4]
            if d > 1:
                pack_bytes += d * (m * k + k * n) * item
    return {
        "ops": plan.n_ops,
        "addsub_bytes": addsub_bytes,
        "pack_bytes": pack_bytes,
        "gemm_flops": gemm_flops,
        "charge_bytes": plan.charge_bytes,
    }


def _bind(plan: ExecutionPlan, a: np.ndarray, b: np.ndarray) -> List[Any]:
    """Region table over private copies of the operands and temporaries.

    Every buffer is written once here, so no page is first touched (and
    faulted in) inside a timed span.
    """
    roots = (np.array(a, order="F"), np.array(b, order="F"),
             np.ones((plan.m, plan.n), dtype=plan.dtype, order="F"))
    temps: Dict[tuple, np.ndarray] = {}
    views: List[Any] = []
    for kind, off, fr, fc, r0, c0, rows, cols in plan.regions:
        if kind == ROOT_TEMP:
            base = temps.get((off, fr, fc))
            if base is None:
                base = temps[(off, fr, fc)] = np.ones(
                    (fr, fc), dtype=plan.dtype, order="F")
        else:
            base = roots[kind]
        views.append(base[r0:r0 + rows, c0:c0 + cols])
    return views


def replay_kernels(plan: ExecutionPlan, a: np.ndarray, b: np.ndarray,
                   alpha: float, beta: float,
                   tracer: Tracer, req: Any = None) -> Dict[str, float]:
    """Seconds per kernel class for one replay of ``plan.ops``.

    Each class's ops run in plan order inside one ``blas.<class>`` span.
    The kernels charge a private context whose tallies must equal the
    plan's own counts, so a replay that drifted from the plan shows.
    """
    v = _bind(plan, a, b)
    st = (alpha, -alpha, beta, -beta)

    def s(x):
        return st[x] if x.__class__ is int else x

    madd, msub, accum, axpby = kernels_for(plan.accuracy)
    ctx = ExecutionContext()
    by_class: Dict[str, List[tuple]] = {"gemm": [], "addsub": [],
                                        "fixup": []}
    for op in plan.ops_quiet:
        by_class[_OP_CLASS[op[0]]].append(op)
    seconds: Dict[str, float] = {}
    for cls, ops in by_class.items():
        t0 = now()
        with tracer.span(f"blas.{cls}", req=req, calls=len(ops)):
            for op in ops:
                code = op[0]
                if code == OP_GEMM:
                    _, ai, bi, ci, al, be = op
                    dgemm(v[ai], v[bi], v[ci], s(al), s(be), ctx=ctx,
                          nb=plan.nb, backend=plan.backend,
                          accuracy=plan.accuracy)
                elif code == OP_MADD:
                    madd(v[op[1]], v[op[2]], v[op[3]], s(op[4]), ctx=ctx)
                elif code == OP_MSUB:
                    msub(v[op[1]], v[op[2]], v[op[3]], s(op[4]), ctx=ctx)
                elif code == OP_ACCUM:
                    accum(v[op[1]], v[op[2]], ctx=ctx)
                elif code == OP_AXPBY:
                    axpby(s(op[1]), v[op[2]], s(op[3]), v[op[4]], ctx=ctx)
                else:
                    _, ai, bi, ci, al, be, side, divisors = op
                    fix = apply_fixups if side == "tail" else apply_fixups_head
                    fix(v[ai], v[bi], v[ci], s(al), s(be), ctx=ctx,
                        divisors=divisors)
        seconds[cls] = now() - t0
    if class_calls(ctx.kernel_calls) != class_calls(
            plan.total_counts()["kernel_calls"]):
        raise RuntimeError("kernel replay diverged from the plan's counts")
    return seconds


def time_compile(signature: Any, tracer: Tracer,
                 req: Any = None) -> float:
    """Seconds of one cold ``compile_plan`` (fusion pass included)."""
    t0 = now()
    with tracer.span("plan.compile_plan", req=req):
        compile_plan(signature)
    return now() - t0


def layer_seconds(plans: Dict[Any, ExecutionPlan],
                  weights: Dict[Any, int],
                  operands: Dict[Any, tuple],
                  tracer: Tracer,
                  repeats: int = 1) -> Dict[str, Any]:
    """Replay every plan; per-request means weighted by use.

    ``plans``/``weights``/``operands`` are keyed alike: the plan, how
    many measured requests used it, and ``(a, b, alpha, beta)``.  With
    ``repeats`` > 1 each class takes its median over the replays.
    Returns per-request mean seconds per class, the GEMM rate of the
    replay, and the median cold compile time over the plans.
    """
    total = sum(weights.values()) or 1
    mean = {"gemm": 0.0, "addsub": 0.0, "fixup": 0.0}
    gemm_s = gemm_flops = 0.0
    compiles: List[float] = []
    for key, plan in plans.items():
        a, b, alpha, beta = operands[key]
        compiles.append(time_compile(plan.signature, tracer, req=str(key)))
        runs = [replay_kernels(plan, a, b, alpha, beta, tracer,
                               req=str(key)) for _ in range(repeats)]
        secs = {cls: median([r[cls] for r in runs]) for cls in mean}
        w = weights.get(key, 0) / total
        for cls in mean:
            mean[cls] += w * secs[cls]
        gemm_s += secs["gemm"]
        gemm_flops += plan_facts(plan)["gemm_flops"]
    return {
        "mean_s": mean,
        "gemm_gflops": gemm_flops / gemm_s / 1e9 if gemm_s else 0.0,
        "compile_ms_p50": 1e3 * median(compiles),
    }


def weighted_mean(facts: Dict[Any, Dict[str, float]],
                  weights: Dict[Any, int], key: str) -> float:
    total = sum(weights.values()) or 1
    return sum(facts[k][key] * w for k, w in weights.items()) / total
