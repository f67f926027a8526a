"""Plan lowering and the one inline replay loop.

The per-op executor loop (:func:`repro.plan.executor._run_ops`) pays
Python dispatch per typed op: one kernel call that re-validates its
operands and charges the context, for every madd/msub/axpby and every
leaf ``dgemm``.  At serving scale that dispatch is a large share of a
request.  This module lowers an
:class:`~repro.plan.compiler.ExecutionPlan`'s op stream, once per plan,
into a :class:`FusedProgram` of two coarse step kinds:

- **Runs** (``FS_EW``): maximal stretches of the op stream between
  fix-ups, executed by :func:`run_fused` as one tight inline loop with
  the same numpy calls in the same order, and no per-op function call,
  validation or charge.  The context is charged once per run with the
  exact aggregate tallies.  A run holds the elementwise ops
  ``OP_MADD``/``OP_MSUB``/``OP_ACCUM``/``OP_AXPBY`` and one kind of
  base product:

  - in an unfused plan, ``OP_GEMM`` stays a base product computed by
    the plan's own kernel (``nb``, ``backend``) through
    :func:`~repro.blas.level3.dgemm_numeric`, ``dgemm``'s own numeric
    body — so the replay is bit-identical to the per-op loop and to
    the recursive driver;
  - in a fused plan (``GemmConfig.fuse``), each ``OP_GEMM`` becomes the
    pseudo-op ``OP_DIRECT``: the product executed in place, at its
    original stream position, by one strided ``np.matmul`` into the
    output view.
- **Fix-ups** (``FS_FIXUP``): dynamic-peeling boundary updates pass
  through to the peeling executors unchanged.  Their DGEMVs run on the
  unfused program's ``backend``; a fused program runs them on the
  vendor kernel (``np.matmul``, BLAS GEMV), as it runs its products.

The checks the kernels would make on every op run once here instead:
the x, y and output shapes of each elementwise op agree, each base
product is (m,k)·(k,n)→(m,n), and no accumulate writes its own input
region.  A plan that fails them is rejected before it can run.

Every lowered program is replayed only for plain numeric contexts —
no tracing, no dry run, no attached machine model (those need per-op
hooks) — and only for ``accuracy="fast"`` plans; everything else
replays through the per-op loop, from the same plan.

Fused products run in place; none is batched.  Stacking same-shape
products into one 3-D ``np.matmul`` (the packing-friendly formulation
of Huang et al.'s BLIS Strassen) was measured and removed: in BLIS the
packing is the GEMM kernel's own, nearly free, but here ``np.matmul``
already packs inside the BLAS, so a Python-level pack is one more
transposing memory pass each way.  Warm fused ``dgefmm`` with every
product in place, relative to the batched design (``strassen1``, Xeon
host with OpenBLAS on one thread; median of ten alternating runs, each
the median of 41 calls, 15 at order 1024)::

    order  cutoff  all-direct / batched
       64      16  0.89
      128      16  0.89
      256      32  0.90
      512      64  0.90
     1024     128  0.92

A fused product may write straight into its output view only when that
view provably aliases neither input and ``beta == 0``; ``safe`` records
the first condition at compile time (see :func:`_overlaps`).  Otherwise
the product lands in one Fortran-ordered scratch slot past the plan's
temporaries, sized for the largest product, and is combined into the
output with ``dgemm``'s scalar arithmetic order.

Numerics of fused plans: the direct ``np.matmul`` applies the BLAS
kernel, which differs from the tiled-``einsum`` substrate kernel (and
may differ from a strided vendor call) in accumulation order only; the
fix-up DGEMVs likewise run on the BLAS GEMV.
Fused execution is therefore *deterministic* (same plan, same operands,
same bits every replay) but is checked against the reference with the
oracle's standard dtype tolerance rather than bit-compared against the
unfused path.  That is why ``fuse`` is a
:class:`~repro.core.config.GemmConfig` field: it keys
:class:`~repro.plan.compiler.PlanSignature`, so fused and unfused plans
can never collide in one cache.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np

from repro.blas.level3 import dgemm_numeric, gemm_flops
from repro.core.peeling import apply_fixups, apply_fixups_head
from repro.core.pool import _align_up
from repro.errors import ArgumentError, DimensionError
from repro.plan.ops import (
    OP_ACCUM,
    OP_AXPBY,
    OP_FIXUP,
    OP_GEMM,
    OP_MADD,
    OP_MSUB,
    ROOT_TEMP,
)

__all__ = ["FusedProgram", "lower_ops", "fuse_plan", "run_fused",
           "FS_EW", "FS_FIXUP", "OP_DIRECT"]

# step kinds (first element of every step tuple)
FS_EW = 0      # (FS_EW, ops, charges)       inline run
FS_FIXUP = 1   # (FS_FIXUP, fixup_op)        peel fix-up

#: pseudo-op inside a fused run: a base-case product executed in place
#: by one strided ``np.matmul`` — (OP_DIRECT, ai, bi, ci, al, be, safe)
#: where ``safe`` means the output region provably aliases neither
#: input, so ``beta == 0`` may write straight into the output view
OP_DIRECT = 7

#: kernel charged for each lowered opcode (OP_MADD..OP_GEMM)
_KERNELS = ("madd", "msub", "accum", "axpby", "dgemm")


class FusedProgram:
    """A lowered replay program for one op stream of one plan.

    ``steps`` is the flat step tuple described in the module docstring.
    ``arena_bytes`` covers the base plan's temporaries plus, in a fused
    program, the one direct-product scratch slot at ``direct_off``; the
    executor sizes the arena from it.  ``nb``/``backend`` are the base
    kernel of an unfused program's ``OP_GEMM`` products (None in a
    fused one).  ``groups`` lists batched product groups as
    ``(d, m, k, n, ...)`` entries for introspection; it is always
    empty, since every product runs in place.
    """

    __slots__ = ("steps", "dtype", "arena_bytes", "direct_off",
                 "n_direct", "nb", "backend", "_bind_cache")

    groups: Tuple[tuple, ...] = ()

    def __init__(self, steps, dtype, arena_bytes, direct_off,
                 n_direct, nb=None, backend=None) -> None:
        self.steps: Tuple[tuple, ...] = steps
        self.dtype = np.dtype(dtype)
        self.arena_bytes = int(arena_bytes)
        self.direct_off = direct_off
        self.n_direct = n_direct
        self.nb = nb
        self.backend = backend
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
# the lowering pass
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


def lower_ops(plan, ops, *, direct: bool = False) -> FusedProgram:
    """Lower one quiet op stream of ``plan`` into a replay program.

    ``direct`` turns every base product into an in-place ``OP_DIRECT``
    (a fused program); otherwise products stay ``OP_GEMM`` on the
    plan's own kernel.  Raises :class:`~repro.errors.DimensionError` or
    :class:`~repro.errors.ArgumentError` when an op fails a check the
    per-op kernels would have made on every replay.
    """
    itemsize = plan.dtype.itemsize
    regions = plan.regions
    shape = [(d[6], d[7]) for d in regions]
    if direct:
        info = [_RegInfo(d, itemsize) for d in regions]
        nb = backend = None
    else:
        nb, backend = plan.nb, plan.backend

    steps: List[tuple] = []
    run: List[tuple] = []
    # per-run tallies, indexed by opcode: calls, muls, adds
    calls = [0] * 5
    muls = [0.0] * 5
    adds = [0.0] * 5
    direct_max = n_direct = 0

    def close_run() -> None:
        if not run:
            return
        charges = tuple(
            (_KERNELS[code], calls[code], muls[code], adds[code])
            for code in range(5) if calls[code]
        )
        steps.append((FS_EW, tuple(run), charges))
        run.clear()
        calls[:] = [0] * 5
        muls[:] = adds[:] = [0.0] * 5

    def mismatch(op, got, want):
        raise DimensionError(
            f"{_KERNELS[op[0]]}: operand has shape {got}, expected "
            f"{want} (plan op {op!r})"
        )

    for op in ops:
        code = op[0]
        if code == OP_MADD or code == OP_MSUB:
            rc = shape[op[3]]
            if shape[op[1]] != rc:
                mismatch(op, shape[op[1]], rc)
            if shape[op[2]] != rc:
                mismatch(op, shape[op[2]], rc)
        elif code == OP_AXPBY:
            rc = shape[op[4]]
            if shape[op[2]] != rc:
                mismatch(op, shape[op[2]], rc)
        elif code == OP_ACCUM:
            rc = shape[op[2]]
            if shape[op[1]] != rc:
                mismatch(op, shape[op[1]], rc)
            if regions[op[1]] == regions[op[2]]:
                raise ArgumentError("accum", "out", "must not alias x")
        elif code == OP_GEMM:
            _, ai, bi, ci, al, be = op
            m, k = shape[ai]
            if shape[bi][0] != k:
                mismatch(op, shape[bi], (k, shape[bi][1]))
            n = shape[bi][1]
            if shape[ci] != (m, n):
                mismatch(op, shape[ci], (m, n))
            gm, ga = gemm_flops(m, k, n)
            calls[code] += 1
            muls[code] += gm
            adds[code] += ga
            if direct:
                safe = (not _overlaps(info[ci], info[ai])
                        and not _overlaps(info[ci], info[bi]))
                run.append((OP_DIRECT, ai, bi, ci, al, be, safe))
                n_direct += 1
                direct_max = max(direct_max, m * n * itemsize)
            else:
                run.append(op)
            continue
        elif code == OP_FIXUP:
            # fix-ups read and write full root windows: barrier
            close_run()
            steps.append((FS_FIXUP, op))
            continue
        else:
            raise ArgumentError(
                "lower_ops", "ops", f"cannot lower plan op {op!r}")
        calls[code] += 1
        adds[code] += float(rc[0]) * rc[1]
        run.append(op)
    close_run()

    # the direct-product scratch is transient within a single OP_DIRECT,
    # so one slot sized for the largest product serves them all
    direct_off = _align_up(plan.arena_bytes) if direct_max else None
    arena_bytes = (direct_off + _align_up(direct_max) if direct_max
                   else plan.arena_bytes)
    return FusedProgram(tuple(steps), plan.dtype, arena_bytes,
                        direct_off, n_direct, nb, backend)


def fuse_plan(plan) -> FusedProgram:
    """Compile a branch-free :class:`ExecutionPlan` into fused steps."""
    if plan.branches:
        raise ValueError("fuse_plan: parallel plans fuse per branch")
    return lower_ops(plan, plan.ops_quiet, direct=True)


# ---------------------------------------------------------------------- #
# the inline replay loop
# ---------------------------------------------------------------------- #
def _scratch_views(fp: FusedProgram, buf) -> dict:
    """The per-buffer cache of direct-scratch views for ``buf``."""
    cache = fp._bind_cache
    entry = cache.get(id(buf))
    if entry is None or entry[0] is not buf:
        if len(cache) >= 64:
            cache.clear()
        entry = (buf, {})
        cache[id(buf)] = entry
    return entry[1]


def run_fused(fp: FusedProgram, v: List[Any], st: tuple, ctx,
              buf) -> None:
    """Replay a lowered program over the resolved region table ``v``.

    ``st`` is the executor's scalar table ``(alpha, -alpha, beta,
    -beta)``; ``buf`` the arena buffer (sized to ``fp.arena_bytes``, so
    a fused program's direct scratch exists past the base plan's
    temporaries).  Only called for plain numeric contexts of
    ``accuracy="fast"`` plans (no trace/dry/machine) — the aggregate
    charges below then equal the per-op path's exactly.
    """
    dtype = fp.dtype
    real = dtype.kind == "f"
    nb, backend = fp.nb, fp.backend
    # a fused program (no base kernel of its own) runs its fix-up
    # DGEMVs on the vendor kernel, like its in-place products
    fix_backend = "vendor" if backend is None else backend
    bound = _scratch_views(fp, buf) if fp.direct_off is not None else None

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
                    # repro.blas.addsub.axpby, branch for branch
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
                        continue
                    if be != 1.0:
                        if be == -1.0 and al == 1.0 and real:
                            np.subtract(v[xi], y, out=y)
                            continue
                        y *= be
                    if al == 1.0:
                        y += v[xi]
                    elif al == -1.0 and real:
                        y -= v[xi]
                    elif al != 0.0:
                        y += al * v[xi]
                elif oc == OP_GEMM:
                    _, ai, bi, ci, al, be = op
                    dgemm_numeric(
                        v[ai], v[bi], v[ci],
                        st[al] if al.__class__ is int else al,
                        st[be] if be.__class__ is int else be,
                        nb, backend,
                    )
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
                            # F-ordered like every plan region, so the
                            # combine below walks matching layouts
                            s = bound[key] = (
                                buf[off:off + nb_].view(dtype)
                                .reshape(key, order="F")
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
                ctx=ctx, divisors=divisors, backend=fix_backend)
