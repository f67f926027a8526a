"""Task-parallel DGEFMM — the paper's "extend ... to use parallelism".

Strassen's construction is naturally task-parallel: after stages (1) and
(2) produce the S/T block sums, the seven products of stage (3) touch
disjoint outputs and read-only inputs.  :func:`pdgefmm` dispatches those
products to a thread pool (each product recurses; numpy's einsum kernels
release the GIL, so threads genuinely overlap), then combines stage (4)
serially.

Recurse-vs-base (and peel) decisions come from the shared traversal core
(:func:`repro.core.traversal.decide`) — the same kernel the serial
driver, the plan compiler and the analytics consume — so the parallel
recursion's *structure* is identical to the serial driver's for the same
:class:`~repro.core.config.GemmConfig`.  The parallel level always
materializes the seven Winograd products (one fixed schedule regardless
of which serial schedule — two-temporary, six-temporary,
multiply-accumulate, or BDPZ — would have run the node); levels whose
bilinear form is *not* the seven Winograd products
(:data:`PARALLEL_LEVELS` is the allow-list — ``textbook`` and the
⟨3,3,3;23⟩ Laderman level are outside it) run serially so their
results match the serial driver exactly.

**Multi-level parallelism.**  The engine recurses parallel levels under a
bounded *worker budget* instead of hard-stopping at one level: a call
with ``workers=w`` runs its seven products on ``t = min(w, 7)`` threads
and hands each product the remaining budget ``max(1, w // t)``.  Down to
``max_parallel_depth`` every product is itself a parallel level, run on
as many threads as its inherited budget affords (a sub-budget of 1 runs
it sequentially); below the parallel region each product is an ordinary
serial DGEFMM recursion *continuing at its true depth* — so
depth-sensitive criteria like :class:`~repro.core.cutoff.DepthCutoff`
see one consistent depth whether a level ran parallel or serial.  So
``workers=7`` gives the classic one-level fan-out, ``workers=14,
max_parallel_depth=2`` runs 7 x 2 threads across two levels, and
``workers=49`` saturates two full levels.  Because the recursion's
*structure* depends only on the depth knob and the cutoff — never on
the budget — op counts and workspace accounting are identical for every
``workers`` value at a fixed depth.

**Workspace pooling.**  Every parallel level and every worker needs its
own arena (concurrent recursions cannot share one stack allocator).
Without a pool each is a fresh :class:`~repro.core.workspace.Workspace`
(allocating every temporary anew); with a
:class:`~repro.core.pool.WorkspacePool` the arenas are checked out,
reused buffer-for-buffer, and checked back in — repeated same-shape
calls amortize temporary allocation to zero
(:func:`~repro.core.pool.workspace_bound_bytes` sizes the arenas from
the paper's Table 1 bounds; :func:`parallel_arena_count` bounds how many
a given budget can hold at once).

The parallel level deliberately abandons the memory frugality of the
serial schedules: all four S, all four T and all seven P blocks are live
at once (mk + kn + 7mn/4 extra in the general case), the classical
memory-for-parallelism trade the paper's serial design avoided.  The
workspace accounting makes that cost visible, as everywhere else:
``ctx.stats["workspace_peak_bytes"]`` charges the *deterministic upper
bound* — the level's own peak plus the sum of all its products' peaks,
as if all workers hit their peaks simultaneously — so the figure is
exact and thread-schedule-independent.

Instrumentation: worker threads charge private contexts which are merged
into the caller's context afterwards
(:meth:`~repro.context.ExecutionContext.merge_child`), so op counts
remain exact at every depth; ``elapsed`` (model time) accumulates
*summed* worker time, i.e. it stays a work measure, not a wall-clock
prediction.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from repro.blas.addsub import NUMERIC_KERNELS, BlockKernels, kernels_for
from repro.blas.dtypes import (
    canonical_dtype,
    default_accuracy,
    require_integral_scalar,
)
from repro.blas.level3 import DEFAULT_TILE
from repro.blas.validate import (
    copy_on_overlap,
    opshape,
    require_matrix,
    require_writable,
)
from repro.context import ExecutionContext, ensure_context
from repro.core.config import DEFAULT_CUTOFF, GemmConfig
from repro.core.cutoff import CutoffCriterion
from repro.core.dgefmm import _rec, _scale_only, dgefmm
from repro.core.peeling import apply_fixups, apply_fixups_head, core_views
from repro.core.pool import WorkspacePool, _checkout_or_local
from repro.core.traversal import Base, decide
from repro.core.workspace import Workspace
from repro.errors import DimensionError

__all__ = ["pdgefmm", "parallel_arena_count", "PARALLEL_LEVELS"]

#: Level codes the fixed parallel schedule can host: every schedule whose
#: bilinear form is the seven Winograd products.  Other levels (textbook's
#: eight-product combine, Laderman's 23-product ⟨3,3,3⟩) fall back to the
#: serial driver — the plan compiler's parallel mirror consults the same
#: set so compiled replay keeps the identical structure.
PARALLEL_LEVELS = frozenset({"s1b0", "s1g", "s2", "bdpz"})


def _split_budget(budget: int, r: int = 7) -> tuple:
    """(threads at this level, budget inherited by each product)."""
    t = min(budget, r)
    return t, max(1, budget // t)


def parallel_arena_count(workers: int, max_parallel_depth: int = 1) -> int:
    """Most arenas a ``pdgefmm`` call can hold checked out at once.

    Use as the ``prewarm`` count of a :class:`~repro.core.pool.WorkspacePool`
    so even the first fully-parallel call constructs no arenas mid-flight.
    """
    if workers < 1:
        raise DimensionError(
            f"parallel_arena_count: workers={workers} must be >= 1"
        )
    if max_parallel_depth < 1:
        raise DimensionError(
            f"parallel_arena_count: max_parallel_depth={max_parallel_depth}"
            " must be >= 1"
        )

    def held(budget: int, level: int) -> int:
        t, sub = _split_budget(budget)
        if level < max_parallel_depth:
            per_job = held(sub, level + 1)
        else:
            per_job = 1
        return 1 + t * per_job

    return held(workers, 1)


def _quadrants(x: Any) -> tuple:
    """The four half-size blocks of an even-dimensioned matrix."""
    m, n = x.shape
    hm, hn = m // 2, n // 2
    return x[:hm, :hn], x[:hm, hn:], x[hm:, :hn], x[hm:, hn:]


def _stage_sums(
    a: Any,
    b: Any,
    ws: Workspace,
    dt: Any,
    ctx: Optional[ExecutionContext],
    em: BlockKernels = NUMERIC_KERNELS,
) -> tuple:
    """Stages (1)/(2) of the parallel level: materialize all four S and
    four T block sums plus the seven product blocks.

    Returns ``((s1..s4), (t1..t4), (p1..p7))`` — every block drawn from
    ``ws`` in a fixed order so pooled (and plan-compiled) layouts replay
    identically.  Shared by the live parallel driver and the plan
    compiler (which passes recording ``em`` kernels and a recording
    workspace).
    """
    a11, a12, a21, a22 = _quadrants(a)
    b11, b12, b21, b22 = _quadrants(b)
    hm, hk = a11.shape
    hn = b11.shape[1]
    s1 = em.madd(a21, a22, ws.alloc(hm, hk, dt), ctx=ctx)
    s2 = em.msub(s1, a11, ws.alloc(hm, hk, dt), ctx=ctx)
    s3 = em.msub(a11, a21, ws.alloc(hm, hk, dt), ctx=ctx)
    s4 = em.msub(a12, s2, ws.alloc(hm, hk, dt), ctx=ctx)
    t1 = em.msub(b12, b11, ws.alloc(hk, hn, dt), ctx=ctx)
    t2 = em.msub(b22, t1, ws.alloc(hk, hn, dt), ctx=ctx)
    t3 = em.msub(b22, b12, ws.alloc(hk, hn, dt), ctx=ctx)
    t4 = em.msub(t2, b21, ws.alloc(hk, hn, dt), ctx=ctx)
    ps = tuple(ws.alloc(hm, hn, dt) for _ in range(7))
    return (s1, s2, s3, s4), (t1, t2, t3, t4), ps


def _job_operands(a: Any, b: Any, s: tuple, t: tuple, ps: tuple) -> tuple:
    """The seven independent products of stage (3) as (a, b, out) triples."""
    a11, a12, a21, a22 = _quadrants(a)
    b11, b12, b21, b22 = _quadrants(b)
    s1, s2, s3, s4 = s
    t1, t2, t3, t4 = t
    p1, p2, p3, p4, p5, p6, p7 = ps
    return (
        (a11, b11, p1), (a12, b21, p2), (s4, b22, p3), (a22, t4, p4),
        (s1, t1, p5), (s2, t2, p6), (s3, t3, p7),
    )


def _stage_combine(
    ps: tuple,
    c: Any,
    alpha: Any,
    beta: Any,
    ctx: Optional[ExecutionContext],
    em: BlockKernels = NUMERIC_KERNELS,
) -> None:
    """Stage (4), serial: the U-tree over the materialized products."""
    c11, c12, c21, c22 = _quadrants(c)
    p1, p2, p3, p4, p5, p6, p7 = ps
    em.accum(p1, p6, ctx=ctx)                 # p6 = U2
    em.accum(p1, p2, ctx=ctx)                 # p2 = U1
    em.axpby(alpha, p2, beta, c11, ctx=ctx)   # C11 done
    em.accum(p6, p7, ctx=ctx)                 # p7 = U3
    em.axpby(alpha, p7, beta, c21, ctx=ctx)
    em.axpby(-alpha, p4, 1.0, c21, ctx=ctx)   # C21 done
    em.axpby(alpha, p7, beta, c22, ctx=ctx)
    em.axpby(alpha, p5, 1.0, c22, ctx=ctx)    # C22 done
    em.accum(p6, p5, ctx=ctx)                 # p5 = U4
    em.accum(p3, p5, ctx=ctx)                 # p5 = U5
    em.axpby(alpha, p5, beta, c12, ctx=ctx)   # C12 done


@contextmanager
def _job_arena(pool: Optional[WorkspacePool]) -> Iterator[Workspace]:
    """A private arena for one worker: pooled if possible, else fresh."""
    if pool is None:
        yield Workspace()
    else:
        with pool.arena() as ws:
            yield ws


def pdgefmm(
    a: Any,
    b: Any,
    c: Any,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: bool = False,
    transb: bool = False,
    *,
    workers: int = 7,
    max_parallel_depth: int = 1,
    cutoff: Optional[CutoffCriterion] = None,
    scheme: str = "auto",
    peel: str = "tail",
    ctx: Optional[ExecutionContext] = None,
    workspace: Optional[Workspace] = None,
    pool: Optional[WorkspacePool] = None,
    nb: int = DEFAULT_TILE,
    backend: str = "substrate",
    plan_cache: Optional["PlanCache"] = None,
    fuse: bool = False,
    accuracy: Optional[str] = None,
) -> Any:
    """Parallel Strassen GEMM: ``C <- alpha*op(A)*op(B) + beta*C``.

    Up to ``max_parallel_depth`` Winograd levels run their seven products
    concurrently under a total budget of ``workers`` threads (split
    level-by-level, see the module docstring); below the parallel region
    each product is an ordinary serial DGEFMM recursion continuing at
    its true depth with the same frozen
    :class:`~repro.core.config.GemmConfig`.  The driver accepts the full
    serial knob set — ``cutoff``, ``scheme``, ``peel``, ``nb``,
    ``backend`` — with the same recursion structure and base kernels as
    :func:`~repro.core.dgefmm.dgefmm`.  Schemes whose level is outside
    :data:`PARALLEL_LEVELS` (``textbook``'s 15-add combine tree,
    ``laderman``'s 23-product ⟨3,3,3⟩ partition) and any call whose
    top-level decision is a base case fall back to the serial driver,
    and only those results are bit-identical to ``dgefmm``.  A parallel
    level forms all seven Winograd products first and combines them
    afterwards, an order of additions no serial schedule uses, so its
    results agree with ``dgefmm`` to roundoff but may differ in the
    last bits (at 256³ and cutoff 32, max |Δ| 1.8e-14 with max |C| ≈
    74).  Replay of a parallel plan is bit-identical to this driver.
    Depth-sensitive cutoff criteria (e.g.
    :class:`~repro.core.cutoff.DepthCutoff`) are fully supported: the
    traversal passes the current depth to ``stop`` at every node, so
    the criterion stays frozen and shareable across the concurrent
    recursions.

    ``pool`` supplies reusable per-worker workspace arenas; ``workspace``
    (if given) is used for the top level's S/T/P blocks exactly as
    before.  ``plan_cache`` (a :class:`~repro.plan.cache.PlanCache`)
    switches to compiled-plan replay: the parallel structure — which
    depends only on ``max_parallel_depth`` and the config, never on
    ``workers`` — is compiled once per signature and replayed under the
    same worker-budget model, bit-identically.  Not supported in dry
    mode (simulated time has no thread model).

    DGEMM conformance matches the serial driver: empty C returns
    immediately; ``k == 0`` or ``alpha == 0`` only scales C by beta
    (overwriting when ``beta == 0``, so NaN/Inf garbage in C is
    discarded); non-contiguous and negative-stride operand views are
    accepted; and an output overlapping an input triggers the
    copy-on-overlap fallback
    (:func:`repro.blas.validate.copy_on_overlap`).
    """
    ctx = ensure_context(ctx)
    if ctx.dry:
        raise DimensionError("pdgefmm does not support dry-run contexts")
    require_matrix("pdgefmm", "a", a)
    require_matrix("pdgefmm", "b", b)
    require_matrix("pdgefmm", "c", c)
    require_writable("pdgefmm", "c", c)
    if workers < 1:
        raise DimensionError(f"pdgefmm: workers={workers} must be >= 1")
    if max_parallel_depth < 1:
        raise DimensionError(
            f"pdgefmm: max_parallel_depth={max_parallel_depth} must be >= 1"
        )
    dt = canonical_dtype(getattr(c, "dtype", None) or "float64")
    if accuracy is None:
        accuracy = default_accuracy(dt)
    cfg = GemmConfig(
        scheme=scheme, peel=peel,
        cutoff=cutoff if cutoff is not None else DEFAULT_CUTOFF,
        nb=nb, backend=backend, fuse=fuse,
        dtype=dt, accuracy=accuracy,
    )
    if cfg.accuracy == "exact":
        # integral scalars travel as Python ints — see dgefmm
        alpha = require_integral_scalar("pdgefmm", "alpha", alpha)
        beta = require_integral_scalar("pdgefmm", "beta", beta)
    if cfg.dtype == "object":
        # pooled byte arenas and compiled plans carve typed views out of
        # raw buffers — impossible for object arrays
        pool = None
        plan_cache = None
    m, k = opshape(a, transa)
    kb, n = opshape(b, transb)
    if kb != k:
        raise DimensionError(f"pdgefmm: op(A) is {m}x{k} but op(B) is {kb}x{n}")
    if tuple(c.shape) != (m, n):
        raise DimensionError(
            f"pdgefmm: C has shape {tuple(c.shape)}, expected {(m, n)}"
        )

    # BLAS degenerate semantics before any plan/pool machinery: empty C
    # is a no-op; k == 0 or alpha == 0 forms no product, only scales C
    # by beta (overwriting when beta == 0 — NaN-safe).
    if m == 0 or n == 0:
        ctx.stats_max("workspace_peak_bytes", 0)
        return c
    if k == 0 or alpha == 0.0:
        _scale_only(c, beta, ctx, cfg.accuracy)
        ctx.stats_max("workspace_peak_bytes", 0)
        return c

    # Overlap guard: identical to the serial driver's (the parallel
    # level additionally shares its operand views across worker threads,
    # so an aliased output would corrupt concurrently).
    a, b = copy_on_overlap(c, a, b, ctx=ctx)
    opa = a.T if transa else a
    opb = b.T if transb else b

    if plan_cache is not None and workspace is None:
        # compiled-plan replay (lazy import: repro.plan compiles through
        # this module's stage helpers)
        from repro.plan.compiler import signature_for
        from repro.plan.executor import execute_plan

        sig = signature_for(
            "parallel", m, k, n, bool(transa), bool(transb),
            alpha == 0.0, beta == 0.0, dt, cfg, max_parallel_depth,
        )
        plan = plan_cache.get_or_compile(sig)
        execute_plan(plan, opa, opb, c, alpha, beta, ctx=ctx, pool=pool,
                     workers=workers)
        ctx.stats_set("plan_cache", plan_cache.stats())
        return c

    node = decide(m, k, n, 0, cfg.scheme, beta == 0.0, cfg.cutoff)
    if isinstance(node, Base) or node.level not in PARALLEL_LEVELS:
        # Serial fallback: the cutoff declined the top-level recursion,
        # or the scheme's level computes products the fixed
        # seven-product parallel schedule cannot mirror.
        # Pool-aware workspace acquisition
        # happens inside dgefmm.
        if workspace is not None:
            return dgefmm(a, b, c, alpha, beta, transa, transb,
                          cutoff=cfg.cutoff, scheme=cfg.scheme,
                          peel=cfg.peel, ctx=ctx, workspace=workspace,
                          nb=cfg.nb, backend=cfg.backend,
                          accuracy=cfg.accuracy)
        return dgefmm(a, b, c, alpha, beta, transa, transb,
                      cutoff=cfg.cutoff, scheme=cfg.scheme, peel=cfg.peel,
                      ctx=ctx, pool=pool, nb=cfg.nb, backend=cfg.backend,
                      accuracy=cfg.accuracy)

    charge = _prun(opa, opb, c, alpha, beta, workers, 1, max_parallel_depth,
                   0, cfg, cfg.scheme, ctx, pool, workspace=workspace)
    ctx.stats_max("workspace_peak_bytes", charge)
    return c


def _prun(
    a: Any,
    b: Any,
    c: Any,
    alpha: float,
    beta: float,
    budget: int,
    level: int,
    max_depth: int,
    depth: int,
    cfg: GemmConfig,
    scheme: str,
    ctx: ExecutionContext,
    pool: Optional[WorkspacePool],
    workspace: Optional[Workspace] = None,
) -> int:
    """One node of the parallel recursion; returns its peak-bytes charge.

    ``a``/``b`` are transpose-resolved views; ``depth`` is the node's
    recursion depth (parallel levels consume depth exactly like serial
    levels).  The node either runs a parallel level (peeling odd
    dimensions around it per the traversal's decision) or — when the
    traversal stops, or resolves a level the parallel schedule cannot
    host — a serial recursion in a private arena.
    """
    m, k = a.shape
    n = b.shape[1]
    if m == 0 or n == 0:
        return 0
    if k == 0 or alpha == 0.0:
        _scale_only(c, beta, ctx, cfg.accuracy)
        return 0
    node = decide(m, k, n, depth, scheme, beta == 0.0, cfg.cutoff)
    if isinstance(node, Base) or node.level not in PARALLEL_LEVELS:
        with _job_arena(pool) as ws:
            _rec(a, b, c, alpha, beta, depth, cfg, scheme, ctx, ws)
            return ws.peak_bytes

    ws = workspace
    pooled = False
    if ws is None:
        ws, pooled = _checkout_or_local(pool)
    try:
        core_a, core_b, core_c = (
            core_views(a, b, c, cfg.peel, node.divisors)
            if node.peeled else (a, b, c)
        )
        charge = _parallel_level(
            core_a, core_b, core_c, alpha, beta, budget, level, max_depth,
            depth, cfg, node.child_scheme, ctx, ws, pool,
        )
        if node.peeled:
            if cfg.peel == "tail":
                apply_fixups(a, b, c, alpha, beta, ctx=ctx,
                             divisors=node.divisors, backend=cfg.backend)
            else:
                apply_fixups_head(a, b, c, alpha, beta, ctx=ctx,
                                  divisors=node.divisors,
                                  backend=cfg.backend)
    except BaseException:
        if pooled:
            pool.release(ws)
        raise
    if pooled:
        pool.checkin(ws)
    return charge


def _parallel_level(
    a: Any,
    b: Any,
    c: Any,
    alpha: float,
    beta: float,
    budget: int,
    level: int,
    max_depth: int,
    depth: int,
    cfg: GemmConfig,
    child_scheme: str,
    ctx: ExecutionContext,
    ws: Workspace,
    pool: Optional[WorkspacePool],
) -> int:
    """One parallel Winograd level (even dims); returns the peak charge:
    this level's own arena peak plus the sum of its products' charges."""
    dt = getattr(c, "dtype", None) or "float64"
    em = kernels_for(cfg.accuracy)
    threads, sub_budget = _split_budget(budget)
    # the *structure* of the recursion depends only on max_parallel_depth
    # (and the config); the budget governs execution — how many threads
    # each level gets.  A sub-budget of 1 runs the deeper parallel level
    # sequentially, so instrumentation and workspace accounting are
    # identical for every workers value at a fixed depth.
    go_deeper = level < max_depth

    with ws.frame():
        # stages (1)/(2): all eight sums materialized (read-only inputs
        # for the concurrent products)
        s, t, ps = _stage_sums(a, b, ws, dt, ctx, em)
        jobs = _job_operands(a, b, s, t, ps)

        worker_ctxs = [
            ExecutionContext(ctx.machine, trace=ctx.trace) for _ in jobs
        ]
        peaks: List[int] = [0] * len(jobs)

        def run(idx: int) -> None:
            aa, bb, cc = jobs[idx]
            wctx = worker_ctxs[idx]
            if go_deeper:
                # another parallel level with the split budget
                peaks[idx] = _prun(aa, bb, cc, 1.0, 0.0, sub_budget,
                                   level + 1, max_depth, depth + 1, cfg,
                                   child_scheme, wctx, pool)
            else:
                # serial recursion in a private (pooled) arena,
                # continuing at this subtree's true depth
                with _job_arena(pool) as wws:
                    _rec(aa, bb, cc, 1.0, 0.0, depth + 1, cfg,
                         child_scheme, wctx, wws)
                    peaks[idx] = wws.peak_bytes

        if threads == 1:
            for i in range(len(jobs)):
                run(i)
        else:
            with ThreadPoolExecutor(max_workers=threads) as tpool:
                list(tpool.map(run, range(len(jobs))))

        # merge worker instrumentation (work, not wall time); job order,
        # so the merged counters are thread-schedule-independent
        for wctx in worker_ctxs:
            ctx.merge_child(wctx)

        _stage_combine(ps, c, alpha, beta, ctx, em)

    return ws.peak_bytes + sum(peaks)
