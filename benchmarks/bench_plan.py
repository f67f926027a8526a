"""Plan-compiler bench: warm-cache replay vs the recursive driver.

The plan subsystem's acceptance target is mechanical: with a warm
:class:`PlanCache` and a warm :class:`WorkspacePool`, repeated
same-signature DGEFMM calls must (a) allocate nothing fresh and (b) cut
the *non-kernel overhead* — wall time above the pure kernel-sequence
floor — by at least 20% versus the recursive driver.

The floor is measured honestly: the plan's lowered program is replayed
by the inline loop over operand views resolved *outside* the timed
region — the numeric work both paths do, with zero planning, zero
allocation, zero view construction and zero per-op dispatch around
it.  Whatever either driver spends above that floor is its per-call
overhead.
"""

import os
import statistics
import time

import numpy as np

from benchmarks.conftest import emit, emit_json, host_block, update_json
from repro.context import ExecutionContext
from repro.core.config import GemmConfig
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.pool import WorkspacePool, workspace_bound_bytes
from repro.plan import PlanCache
from repro.plan.compiler import compile_plan, signature_for
from repro.plan.executor import _aligned_buffer, _resolve
from repro.plan.fuse import run_fused


def _best(fn, n=7):
    ts = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return min(ts)


def test_plan_overhead(benchmark):
    """Warm-cache planned replay vs recursive walk, m=k=n=192, tau=24.

    A deep recursion over small base blocks maximizes the per-call
    planning share (cutoff tests, peeling logic, workspace frames,
    closure and event construction), which is the regime the plan
    subsystem exists for.
    """
    m = k = n = 192
    alpha, beta = 1.0, 0.0
    crit = SimpleCutoff(24)
    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    c_rec = np.zeros((m, n), order="F")
    c_pln = np.zeros((m, n), order="F")

    pool = WorkspacePool(workspace_bound_bytes(m, k, n, "strassen1"))
    cache = PlanCache()

    def recursive():
        dgefmm(a, b, c_rec, alpha, beta, cutoff=crit, pool=pool)

    def planned():
        dgefmm(a, b, c_pln, alpha, beta, cutoff=crit, pool=pool,
               plan_cache=cache)

    recursive()
    planned()  # warm-up: compiles the plan, grows the pooled arena
    np.testing.assert_array_equal(c_pln, c_rec)

    # the zero-allocation claim: nothing fresh once cache and pool are warm
    warm_bytes = pool.new_buffer_bytes
    for _ in range(3):
        planned()
    assert pool.new_buffer_bytes == warm_bytes
    assert cache.stats()["misses"] == 1

    sig = signature_for("serial", m, k, n, False, False, False,
                        beta == 0.0, "float64", GemmConfig(cutoff=crit))
    plan = cache.get_or_compile(sig)  # a hit: planned() compiled it
    assert cache.stats()["misses"] == 1 and not plan.branches

    # kernel-sequence floor: the plan's own inline replay loop over
    # operands resolved outside the timed region
    buf = _aligned_buffer(plan.program.arena_bytes)
    c_floor = np.zeros((m, n), order="F")
    views = _resolve(plan, a, b, c_floor, buf)
    st = (alpha, -alpha, beta, -beta)
    ctx = ExecutionContext()

    def floor():
        run_fused(plan.program, views, st, ctx, buf)

    t_floor = _best(floor)
    t_rec = _best(recursive)
    t_pln = benchmark.pedantic(lambda: _best(planned),
                               rounds=1, iterations=1)
    over_rec = t_rec - t_floor
    over_pln = t_pln - t_floor
    reduction = 1.0 - over_pln / over_rec

    emit(
        "Plan replay vs recursive DGEFMM, m=192, tau=24",
        f"kernel floor {t_floor * 1e3:.2f} ms/call\n"
        f"recursive    {t_rec * 1e3:.2f} ms/call "
        f"({over_rec * 1e3:.2f} ms non-kernel overhead)\n"
        f"planned warm {t_pln * 1e3:.2f} ms/call "
        f"({over_pln * 1e3:.2f} ms non-kernel overhead)\n"
        f"non-kernel overhead reduction {reduction:.0%} "
        f"(acceptance floor 20%); fresh bytes after warm-up: "
        f"{pool.new_buffer_bytes - warm_bytes}",
    )
    emit_json(
        "plan_overhead",
        {"m": m, "k": k, "n": n, "alpha": alpha, "beta": beta,
         "cutoff": crit.tau, "repeats": 7},
        [
            {"path": "kernel_floor", "best_s": t_floor, "overhead_s": 0.0},
            {"path": "recursive", "best_s": t_rec, "overhead_s": over_rec},
            {"path": "planned_warm", "best_s": t_pln,
             "overhead_s": over_pln},
        ],
        summary={"overhead_reduction": reduction,
                 "fresh_bytes_after_warmup": pool.new_buffer_bytes
                 - warm_bytes,
                 "cache": cache.stats()},
    )
    # the acceptance criterion: planned replay sheds >= 20% of the
    # recursive driver's non-kernel overhead
    assert reduction >= 0.20, (t_floor, t_rec, t_pln)


def test_plan_cache_amortization(benchmark):
    """Compile-once economics over a mixed-shape workload.

    Times the first (compiling) pass against later warm passes over the
    same shape mix through one bounded cache, and reports how plan bytes
    and evictions behave when the bound is deliberately small.
    """
    crit = SimpleCutoff(16)
    shapes = [(64, 64, 64), (65, 63, 67), (96, 48, 80), (33, 97, 41)]
    rng = np.random.default_rng(1)
    work = []
    for mm, kk, nn in shapes:
        work.append((
            np.asfortranarray(rng.standard_normal((mm, kk))),
            np.asfortranarray(rng.standard_normal((kk, nn))),
            np.zeros((mm, nn), order="F"),
        ))
    cache = PlanCache(max_plans=len(shapes))

    def sweep():
        for a, b, c in work:
            dgefmm(a, b, c, cutoff=crit, plan_cache=cache)

    t_cold = _best(sweep, 1)        # every shape compiles
    t_warm = benchmark.pedantic(lambda: _best(sweep, 5),
                                rounds=1, iterations=1)
    stats = cache.stats()
    emit(
        "Plan cache amortization over a 4-shape workload",
        f"cold sweep (compiles) {t_cold * 1e3:.2f} ms, warm sweep "
        f"{t_warm * 1e3:.2f} ms ({t_cold / t_warm:.1f}x)\n"
        f"cache: {stats['plans']} plans, {stats['bytes']:,} B, "
        f"{stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['evictions']} evictions",
    )
    assert stats["misses"] == len(shapes)
    assert stats["evictions"] == 0
    assert t_warm < t_cold


def test_plan_fused_replay(benchmark):
    """Fused replay vs the eager recursive driver, m=k=n=192, tau=24.

    Fused replay (:mod:`repro.plan.fuse`) runs every base-case product
    as one strided ``np.matmul`` in place.  Unfused plans now replay
    through the same inline loop, so per-op Python dispatch is no
    longer what separates the two; the eager recursive driver
    (``dgefmm`` with no plan cache) still pays it, per kernel call and
    per recursion node, so the 1.6x floor is asserted against that.

    Two rows carry no floor:

    - interpreted replay with the substrate kernel: what is left of the
      old fused-vs-interpreted margin, mostly the substrate-to-BLAS
      kernel swap (fused products always multiply with BLAS);
    - interpreted replay with the vendor kernel: the same kernel as the
      fused products, so this ratio is the one-variable fusion effect.
    """
    m = k = n = 192
    crit = SimpleCutoff(24)
    rng = np.random.default_rng(3)
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    c0 = np.asfortranarray(rng.standard_normal((m, n)))

    pool = WorkspacePool(workspace_bound_bytes(m, k, n, "strassen1"))
    cache = PlanCache()
    rows = []
    ratios = {}
    for beta in (0.0, 0.5):
        outs = {}

        def path(name, **kw):
            c = outs[name] = c0.copy(order="F")
            return lambda: dgefmm(a, b, c, 1.0, beta, cutoff=crit,
                                  pool=pool, **kw)

        paths = {
            "eager": path("eager"),
            "interpreted_warm": path("interpreted_warm",
                                     plan_cache=cache),
            "interpreted_vendor_warm": path("interpreted_vendor_warm",
                                            plan_cache=cache,
                                            backend="vendor"),
            "fused_warm": path("fused_warm", plan_cache=cache,
                               fuse=True),
        }
        for fn in paths.values():
            fn()    # warm-up: compiles every plan, grows the arena
        # unfused replay is bit-identical to the eager driver; the
        # direct matmul accumulates in a different order than the tiled
        # substrate kernel — never exact, always within the oracle's
        # float64 tolerance
        assert np.array_equal(outs["interpreted_warm"], outs["eager"])
        scale = max(1.0, float(np.max(np.abs(outs["eager"]))))
        assert (float(np.max(np.abs(outs["fused_warm"] - outs["eager"])))
                <= 1e-9 * scale)

        best = {name: _best(fn) for name, fn in paths.items()}
        for name, t in best.items():
            rows.append({"beta": beta, "path": name, "best_s": t})
        ratios[beta] = {name: t / best["fused_warm"]
                        for name, t in best.items()
                        if name != "fused_warm"}

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sig = signature_for("serial", m, k, n, False, False, False, True,
                        "float64", GemmConfig(cutoff=crit, fuse=True))
    fp = cache.peek(sig).fused
    emit(
        "Fused plan replay vs eager and interpreted, m=192, tau=24",
        "\n".join(
            f"beta={beta}: fused is "
            + ", ".join(f"{r:.2f}x {name}" for name, r in ratio.items())
            for beta, ratio in ratios.items()
        ) + f"\nfused program: {fp!r}",
    )
    emit_json(
        "plan_fused",
        {"m": m, "k": k, "n": n, "cutoff": crit.tau, "repeats": 7,
         "assert_floor": 1.6, "floor_against": "eager"},
        rows,
        summary={
            "speedup_beta0": ratios[0.0]["eager"],
            "speedup_beta": ratios[0.5]["eager"],
            "vs_interpreted_beta0": ratios[0.0]["interpreted_warm"],
            "vs_interpreted_beta": ratios[0.5]["interpreted_warm"],
            "vs_interpreted_vendor_beta0":
                ratios[0.0]["interpreted_vendor_warm"],
            "vs_interpreted_vendor_beta":
                ratios[0.5]["interpreted_vendor_warm"],
            "steps": len(fp.steps),
            "direct_products": fp.n_direct,
        },
    )
    for beta, ratio in ratios.items():
        assert ratio["eager"] >= 1.6, (
            f"fused replay only {ratio['eager']:.2f}x the eager driver "
            f"at beta={beta} (assert floor 1.6x)"
        )


#: pre-refactor reference times (seconds) for the traversal-core
#: rewrite, measured on this bench's fixed workload (m=k=n=192,
#: tau=24) immediately before the single-decide refactor landed.  The
#: guard allows a generous 3x over them: it exists to catch an
#: accidental complexity-class or per-node-cost blowup in the shared
#: decide() kernel, not to pin CI-host jitter.
_PRE_REFACTOR_S = {
    "compile_serial": 4.77e-3,
    "compile_parallel": 6.08e-3,
    "replay_warm": 10.38e-3,
    "recursive": 11.57e-3,
}
_GUARD_SLACK = 3.0


def test_traversal_refactor_guard(benchmark):
    """Compile time and warm-replay overhead vs pre-refactor numbers.

    The single-traversal-core refactor routed every walker through one
    decide() kernel; this guard re-runs the plan bench's workload and
    asserts none of compile (serial + parallel mirror), warm replay, or
    the eager recursive walk regressed past 3x the numbers recorded
    before the refactor.
    """
    m = k = n = 192
    crit = SimpleCutoff(24)
    cfg = GemmConfig(cutoff=crit)
    sig_s = signature_for("serial", m, k, n, False, False, False, True,
                          "float64", cfg)
    sig_p = signature_for("parallel", m, k, n, False, False, False,
                          True, "float64", cfg, 1)

    rng = np.random.default_rng(2)
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    c = np.zeros((m, n), order="F")
    pool = WorkspacePool(workspace_bound_bytes(m, k, n, "strassen1"))
    cache = PlanCache()

    def replay():
        dgefmm(a, b, c, cutoff=crit, pool=pool, plan_cache=cache)

    def recursive():
        dgefmm(a, b, c, cutoff=crit, pool=pool)

    replay()  # warm the cache and the pooled arena
    measured = {
        "compile_serial": _best(lambda: compile_plan(sig_s), 3),
        "compile_parallel": _best(lambda: compile_plan(sig_p), 3),
        "replay_warm": _best(replay),
        "recursive": benchmark.pedantic(lambda: _best(recursive),
                                        rounds=1, iterations=1),
    }

    lines = []
    for key, t in measured.items():
        ref = _PRE_REFACTOR_S[key]
        lines.append(f"{key:<16} {t * 1e3:7.2f} ms "
                     f"(pre-refactor {ref * 1e3:.2f} ms, "
                     f"{t / ref:.2f}x)")
    emit("Traversal-core refactor regression guard, m=192, tau=24",
         "\n".join(lines))
    emit_json(
        "traversal_refactor_guard",
        {"m": m, "k": k, "n": n, "cutoff": crit.tau,
         "slack": _GUARD_SLACK},
        [{"path": key, "best_s": t,
          "pre_refactor_s": _PRE_REFACTOR_S[key]}
         for key, t in measured.items()],
    )
    for key, t in measured.items():
        ref = _PRE_REFACTOR_S[key]
        assert t <= _GUARD_SLACK * ref, (
            f"{key} regressed: {t * 1e3:.2f} ms vs pre-refactor "
            f"{ref * 1e3:.2f} ms (allowed {_GUARD_SLACK}x)"
        )


#: odd and rectangular three-level shapes in 150..400 (the cold-serving
#: regime: cutoff ``min(m, k, n) // 8 + 1``); odd entries get beta != 0
_COLD_SHAPES = [
    (151, 163, 157), (296, 380, 163), (172, 174, 253), (329, 219, 292),
    (251, 280, 245), (397, 155, 263), (173, 359, 211), (237, 301, 389),
]


def test_plan_compile_cold(benchmark):
    """Cold compile vs warm replay of the same three-level plans.

    A cold request compiles its plan once and replays it once, so the
    compile's share of a cold request is compile / (compile + replay).
    Compiling records each distinct subproblem once (about a dozen of
    the ~400 recursion nodes) and splices it in everywhere else, which
    keeps the compile under half of one warm replay.
    """
    rng = np.random.default_rng(5)
    work = []
    for i, (m, k, n) in enumerate(_COLD_SHAPES):
        beta = 0.5 if i % 2 else 0.0
        crit = SimpleCutoff(min(m, k, n) // 8 + 1)
        sig = signature_for("serial", m, k, n, False, False, False,
                            beta == 0.0, "float64", GemmConfig(cutoff=crit))
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.asfortranarray(rng.standard_normal((m, n)))
        work.append((sig, crit, beta, a, b, c))

    pool = WorkspacePool()
    cache = PlanCache()
    compile_s, replay_s = [], []
    for sig, crit, beta, a, b, c in work:

        def replay():
            dgefmm(a, b, c, 1.0, beta, cutoff=crit, pool=pool,
                   plan_cache=cache)

        replay()    # compiles once and grows the pooled arena
        compile_s.append(_best(lambda: compile_plan(sig), 5))
        replay_s.append(_best(replay, 5))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    compile_p50 = 1e3 * statistics.median(compile_s)
    replay_p50 = 1e3 * statistics.median(replay_s)
    ratio = compile_p50 / replay_p50
    emit(
        "Cold plan compile vs warm replay, 3-level odd/rectangular shapes",
        f"compile p50 {compile_p50:.2f} ms, warm replay p50 "
        f"{replay_p50:.2f} ms, ratio {ratio:.2f} (gate 0.5 on "
        f">= 2 cpus; {os.cpu_count()} here)",
    )
    update_json(
        "plan_fused",
        compile_cold={
            "shapes": ["x".join(map(str, s)) for s in _COLD_SHAPES],
            "cutoff": "min(m, k, n) // 8 + 1",
            "repeats": 5,
            "rows": [
                {"shape": "x".join(map(str, (sig.m, sig.k, sig.n))),
                 "beta": beta, "compile_ms": 1e3 * tc,
                 "replay_warm_ms": 1e3 * tr}
                for (sig, _crit, beta, *_ops), tc, tr
                in zip(work, compile_s, replay_s)
            ],
            "compile_ms_p50": compile_p50,
            "replay_warm_ms_p50": replay_p50,
            "compile_over_replay": ratio,
            "gate": 0.5,
            "host": host_block(),
        },
    )
    if (os.cpu_count() or 1) >= 2:
        assert ratio <= 0.5, (
            f"cold compile {compile_p50:.2f} ms is {ratio:.2f}x a warm "
            f"replay ({replay_p50:.2f} ms); gate 0.5x"
        )
