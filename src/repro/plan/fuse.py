"""Plan fusion: coalesce op chains and run every base product in place.

The interpreted executor (:mod:`repro.plan.executor`) pays Python
dispatch per typed op — one function call, operand validation, and a
context charge for every madd/msub/axpby and every leaf ``dgemm``.  At
serving scale that dispatch *is* the dominant cost (ROADMAP item 1).
This module compiles an :class:`~repro.plan.compiler.ExecutionPlan`
into a :class:`FusedProgram` of two coarse step kinds:

- **Runs** (``FS_EW``): maximal stretches of the op stream between
  fix-ups, executed as one tight inline loop — same numpy calls, same
  order, no per-op function call, validation, or charge (the context is
  charged once per run with the exact aggregate tallies).  A run holds
  the elementwise ops ``OP_MADD``/``OP_MSUB``/``OP_ACCUM``/``OP_AXPBY``,
  bit-identical to interpreted replay by construction, and the
  pseudo-op ``OP_DIRECT``: a base-case product executed in place, at
  its original stream position, by one strided ``np.matmul`` into the
  output view.
- **Fix-ups** (``FS_FIXUP``): dynamic-peeling boundary updates pass
  through to the interpreted executors unchanged.

Every base product runs in place; none is batched.  Stacking
same-shape products into one 3-D ``np.matmul`` (the packing-friendly
formulation of Huang et al.'s BLIS Strassen) was measured and removed:
in BLIS the packing is the GEMM kernel's own, nearly free, but here
``np.matmul`` already packs inside the BLAS, so a Python-level pack is
one more transposing memory pass each way.  Warm fused ``dgefmm``
with every product in place, relative to the batched design
(``strassen1``, Xeon host with OpenBLAS on one thread; median of ten
alternating runs, each the median of 41 calls, 15 at order 1024)::

    order  cutoff  all-direct / batched
       64      16  0.89
      128      16  0.89
      256      32  0.90
      512      64  0.90
     1024     128  0.92

A product may write straight into its output view only when that view
provably aliases neither input and ``beta == 0``; ``safe`` records the
first condition at compile time (see :func:`_overlaps`).  Otherwise the
product lands in one scratch slot past the plan's temporaries, sized
for the largest product, and is combined into the output with
``dgemm``'s scalar arithmetic order.

Numerics: the direct ``np.matmul`` applies the BLAS kernel, which
differs from the tiled-``einsum`` substrate kernel (and may differ from
a strided vendor call) in accumulation order only.  Fused execution is
therefore *deterministic* (same plan, same operands, same bits every
replay) but is checked against the reference with the oracle's standard
dtype tolerance rather than bit-compared against the interpreted path;
the compensated elementwise chains stay bit-identical.  That is why
``fuse`` is a :class:`~repro.core.config.GemmConfig` field: it keys
:class:`~repro.plan.compiler.PlanSignature`, so fused and interpreted
plans can never collide in one cache.

The fused path runs only for plain numeric replay — no tracing, no dry
run, no attached machine model (those need per-op hooks); the executor
falls back to interpreted replay otherwise, from the same plan.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np

from repro.blas.level3 import gemm_flops
from repro.core.peeling import apply_fixups, apply_fixups_head
from repro.core.pool import _align_up
from repro.plan.ops import (
    OP_ACCUM,
    OP_AXPBY,
    OP_FIXUP,
    OP_GEMM,
    OP_MADD,
    OP_MSUB,
    ROOT_TEMP,
)

__all__ = ["FusedProgram", "fuse_plan", "run_fused",
           "FS_EW", "FS_FIXUP", "OP_DIRECT"]

# fused step kinds (first element of every step tuple)
FS_EW = 0      # (FS_EW, ops, charges)       inline run
FS_FIXUP = 1   # (FS_FIXUP, fixup_op)        interpreted peel fix-up

#: pseudo-op inside an FS_EW run: a base-case product executed in place
#: by one strided ``np.matmul`` — (OP_DIRECT, ai, bi, ci, al, be, safe)
#: where ``safe`` means the output region provably aliases neither
#: input, so ``beta == 0`` may write straight into the output view
OP_DIRECT = 7

_EW_NAMES = {OP_MADD: "madd", OP_MSUB: "msub",
             OP_ACCUM: "accum", OP_AXPBY: "axpby"}
#: position of the written region in each elementwise op
_EW_OUT = {OP_MADD: 3, OP_MSUB: 3, OP_ACCUM: 2, OP_AXPBY: 4}


class FusedProgram:
    """A compiled fused replay program for one branch-free plan.

    ``steps`` is the flat step tuple described in the module docstring.
    ``arena_bytes`` covers the base plan's temporaries plus the one
    direct-product scratch slot at ``direct_off``; the executor sizes
    the arena from it when replaying fused.  ``groups`` lists batched
    product groups as ``(d, m, k, n, ...)`` entries for introspection;
    it is always empty, since every product runs in place.
    """

    __slots__ = ("steps", "dtype", "arena_bytes", "direct_off",
                 "n_direct", "_bind_cache")

    groups: Tuple[tuple, ...] = ()

    def __init__(self, steps, dtype, arena_bytes, direct_off,
                 n_direct) -> None:
        self.steps: Tuple[tuple, ...] = steps
        self.dtype = np.dtype(dtype)
        self.arena_bytes = int(arena_bytes)
        self.direct_off = direct_off
        self.n_direct = n_direct
        #: per-arena-buffer cache of direct-scratch views, keyed by the
        #: buffer's id with the buffer stored for identity checks (same
        #: discipline as ExecutionPlan._temp_cache)
        self._bind_cache: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FusedProgram({len(self.steps)} steps, "
            f"{self.n_direct} direct products)"
        )


# ---------------------------------------------------------------------- #
# the fusion pass
# ---------------------------------------------------------------------- #
class _RegInfo:
    """Precomputed overlap geometry for one plan region."""

    __slots__ = ("kind", "base", "lo", "hi", "r0", "r1", "c0", "c1",
                 "empty")

    def __init__(self, desc: tuple, itemsize: int) -> None:
        kind, off, fr, fc, r0, c0, rows, cols = desc
        self.kind = kind
        self.base = (off, fr, fc)
        self.lo = off
        self.hi = off + fr * fc * itemsize
        self.r0, self.r1 = r0, r0 + rows
        self.c0, self.c1 = c0, c0 + cols
        self.empty = rows == 0 or cols == 0


def _overlaps(p: _RegInfo, q: _RegInfo) -> bool:
    """May the two regions share memory at execution time?

    Distinct roots never alias when replay starts (``copy_on_overlap``
    guarantees C is disjoint from A/B, and the arena is private), so
    only same-kind pairs can conflict: root windows by rectangle
    intersection; temporaries by rectangle when they window the same
    allocation, else conservatively by arena byte interval (sibling
    frames legitimately reuse offsets).
    """
    if p.empty or q.empty or p.kind != q.kind:
        return False
    if p.kind == ROOT_TEMP and p.base != q.base:
        return p.lo < q.hi and q.lo < p.hi
    return (p.r0 < q.r1 and q.r0 < p.r1
            and p.c0 < q.c1 and q.c0 < p.c1)


def fuse_plan(plan) -> FusedProgram:
    """Compile a branch-free :class:`ExecutionPlan` into fused steps."""
    if plan.branches:
        raise ValueError("fuse_plan: parallel plans fuse per branch")
    itemsize = plan.dtype.itemsize
    regions = plan.regions
    info = [_RegInfo(d, itemsize) for d in regions]

    steps: List[tuple] = []
    run: List[tuple] = []
    charge: dict = {}   # kernel -> [calls, muls, adds]
    direct_max = n_direct = 0

    def close_run() -> None:
        if not run:
            return
        charges = tuple(
            (name, calls, muls, adds)
            for name, (calls, muls, adds) in charge.items()
        )
        steps.append((FS_EW, tuple(run), charges))
        run.clear()
        charge.clear()

    for op in plan.ops_quiet:
        code = op[0]
        if code == OP_FIXUP:
            # fix-ups read and write full root windows: barrier
            close_run()
            steps.append((FS_FIXUP, op))
            continue
        if code == OP_GEMM:
            _, ai, bi, ci, al, be = op
            m, k = regions[ai][6], regions[ai][7]
            n = regions[bi][7]
            safe = (not _overlaps(info[ci], info[ai])
                    and not _overlaps(info[ci], info[bi]))
            run.append((OP_DIRECT, ai, bi, ci, al, be, safe))
            name = "dgemm"
            muls, adds = gemm_flops(m, k, n)
            n_direct += 1
            direct_max = max(direct_max, m * n * itemsize)
        else:
            run.append(op)
            name = _EW_NAMES[code]
            rows, cols = regions[op[_EW_OUT[code]]][6:8]
            muls, adds = 0.0, float(rows) * cols
        entry = charge.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += muls
        entry[2] += adds
    close_run()

    # the direct-product scratch is transient within a single OP_DIRECT,
    # so one slot sized for the largest product serves them all
    direct_off = _align_up(plan.arena_bytes) if direct_max else None
    arena_bytes = (direct_off + _align_up(direct_max) if direct_max
                   else plan.arena_bytes)
    return FusedProgram(tuple(steps), plan.dtype, arena_bytes,
                        direct_off, n_direct)


# ---------------------------------------------------------------------- #
# fused replay
# ---------------------------------------------------------------------- #
def run_fused(fp: FusedProgram, v: List[Any], st: tuple, ctx,
              buf) -> None:
    """Replay a fused program over the resolved region table ``v``.

    ``st`` is the executor's scalar table ``(alpha, -alpha, beta,
    -beta)``; ``buf`` the arena buffer (sized to ``fp.arena_bytes`` so
    the direct scratch exists past the base plan's temporaries).  Only
    called for plain numeric contexts (no trace/dry/machine) — the
    aggregate charges below then equal the interpreted path's exactly.
    """
    dtype = fp.dtype
    cache = fp._bind_cache
    entry = cache.get(id(buf))
    if entry is None or entry[0] is not buf:
        if len(cache) >= 64:
            cache.clear()
        entry = (buf, {})
        cache[id(buf)] = entry
    bound = entry[1]

    for step in fp.steps:
        if step[0] == FS_EW:
            for op in step[1]:
                oc = op[0]
                if oc == OP_MADD:
                    _, xi, yi, oi, al = op
                    out = v[oi]
                    np.add(v[xi], v[yi], out=out)
                    al = st[al] if al.__class__ is int else al
                    if al != 1.0:
                        out *= al
                elif oc == OP_MSUB:
                    _, xi, yi, oi, al = op
                    out = v[oi]
                    np.subtract(v[xi], v[yi], out=out)
                    al = st[al] if al.__class__ is int else al
                    if al != 1.0:
                        out *= al
                elif oc == OP_ACCUM:
                    v[op[2]] += v[op[1]]
                elif oc == OP_AXPBY:
                    _, al, xi, be, yi = op
                    al = st[al] if al.__class__ is int else al
                    be = st[be] if be.__class__ is int else be
                    y = v[yi]
                    if be == 0.0:
                        if al == 0.0:
                            y[...] = 0.0
                        elif al == 1.0:
                            y[...] = v[xi]
                        else:
                            np.multiply(v[xi], al, out=y)
                    else:
                        if be != 1.0:
                            y *= be
                        if al == 1.0:
                            y += v[xi]
                        elif al != 0.0:
                            y += al * v[xi]
                else:  # OP_DIRECT
                    _, ai, bi, ci, al, be, safe = op
                    al = st[al] if al.__class__ is int else al
                    be = st[be] if be.__class__ is int else be
                    cv = v[ci]
                    if be == 0.0 and safe:
                        np.matmul(v[ai], v[bi], out=cv)
                        if al != 1.0:
                            cv *= al
                    else:
                        key = cv.shape
                        s = bound.get(key)
                        if s is None:
                            sm, sn = key
                            nb_ = sm * sn * dtype.itemsize
                            off = fp.direct_off
                            s = bound[key] = (
                                buf[off:off + nb_].view(dtype)
                                .reshape(key)
                            )
                        np.matmul(v[ai], v[bi], out=s)
                        if al != 1.0:
                            s *= al
                        if be == 0.0:
                            cv[...] = s
                        else:
                            if be != 1.0:
                                cv *= be
                            cv += s
            for name, calls, muls, adds in step[2]:
                ctx.charge_many(name, calls, muls=muls, adds=adds)
        else:  # FS_FIXUP
            op = step[1]
            _, ai, bi, ci, al, be, side, divisors = op
            fix = apply_fixups if side == "tail" else apply_fixups_head
            fix(v[ai], v[bi], v[ci],
                st[al] if al.__class__ is int else al,
                st[be] if be.__class__ is int else be,
                ctx=ctx, divisors=divisors)
