"""The fusion pass (:mod:`repro.plan.fuse`) and fused replay.

The contract under test, in decreasing strictness:

1. **Determinism** — fused replay of one plan produces the same bits
   every time (warm and cold arenas alike).
2. **Charge parity** — kernel calls and mul/add flop tallies charged by
   a fused replay equal the interpreted replay's exactly (aggregate
   charging of identical per-op tallies).
3. **Reference tolerance** — fused results match the numpy reference
   within the oracle's dtype tolerance.  Fused execution is *not*
   bit-compared to the interpreted stream: the direct ``np.matmul``
   kernel accumulates in a different order than the tiled
   substrate kernel, the one documented divergence.
4. **Edge semantics** — ``beta == 0`` NaN-overwrite, ``alpha == 0``
   skip, zero-dim early-outs, and operand aliasing hold through the
   fused driver path exactly as ``tests/test_blas_conformance.py`` pins
   them for the interpreted path.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.context import ExecutionContext
from repro.core.config import GemmConfig
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.parallel import pdgefmm
from repro.core.pool import _align_up
from repro.core.schemes import SCHEME_NAMES
from repro.errors import ArgumentError
from repro.plan import PlanCache, compile_plan, execute_plan, fuse_plan
from repro.plan.compiler import signature_for
from repro.plan.fuse import FS_EW, OP_DIRECT, run_fused
from repro.plan.ops import OP_GEMM, ROOT_B, ROOT_TEMP

CUT = SimpleCutoff(8)

SHAPES = [
    (16, 16, 16),
    (32, 32, 32),
    (17, 13, 19),      # primes: peeling + fix-ups at every level
    (33, 7, 29),
    (1, 7, 9),
]


def _sig(m, k, n, beta=0.0, fuse=True, scheme="auto", cutoff=CUT,
         dtype="float64"):
    cfg = GemmConfig(scheme=scheme, cutoff=cutoff, fuse=fuse)
    return signature_for("serial", m, k, n, False, False,
                         False, beta == 0.0, dtype, cfg)


def _run(plan, a, b, c, alpha, beta, ctx=None):
    execute_plan(plan, a, b, c, alpha, beta,
                 ctx=ctx if ctx is not None else ExecutionContext())
    return c


def _mats(rng, m, k, n, dtype="float64"):
    def mk(r, c):
        x = rng.standard_normal((r, c))
        if np.dtype(dtype).kind == "c":
            x = x + 1j * rng.standard_normal((r, c))
        return np.asfortranarray(x.astype(dtype))
    return mk(m, k), mk(k, n), mk(m, n)


# ---------------------------------------------------------------------- #
class TestFusionPass:
    def test_fused_attached_only_when_requested(self):
        assert compile_plan(_sig(16, 16, 16, fuse=False)).fused is None
        fused = compile_plan(_sig(16, 16, 16)).fused
        assert fused is not None
        assert fused.groups == ()

    def test_every_gemm_appears_exactly_once(self):
        """Each OP_GEMM of the interpreted stream becomes exactly one
        OP_DIRECT, in stream order — never batched, never dropped."""
        for m, k, n in SHAPES:
            plan = compile_plan(_sig(m, k, n))
            gemms = [op[1:] for op in plan.ops_quiet if op[0] == OP_GEMM]
            directs = [op[1:6] for s in plan.fused.steps if s[0] == FS_EW
                       for op in s[1] if op[0] == OP_DIRECT]
            assert directs == gemms
            assert plan.fused.n_direct == len(gemms)
            # ... and at its original position among the other ops
            flat = []
            for step in plan.fused.steps:
                if step[0] != FS_EW:
                    flat.append(step[1])
                    continue
                flat += [(OP_GEMM,) + op[1:6] if op[0] == OP_DIRECT else op
                         for op in step[1]]
            assert flat == list(plan.ops_quiet)

    def test_elementwise_order_preserved(self):
        """Non-gemm ops keep their exact relative order across runs."""
        plan = compile_plan(_sig(32, 32, 32, beta=0.5))
        interp = [op for op in plan.ops_quiet
                  if op[0] != OP_GEMM and op[0] != 6]  # minus OP_EVENT
        fused = [op for s in plan.fused.steps if s[0] == FS_EW
                 for op in s[1] if op[0] != OP_DIRECT]
        assert fused == interp

    def test_safe_false_when_output_overlaps_input(self):
        """``safe`` is False whenever the output region may overlap an
        input, and replay then still computes through the scratch slot.

        No scheme emits such a product, so a hand-built stream drives
        it: ``T <- T @ B`` overlaps within one allocation, ``U <- B @ B``
        overlaps nothing, and ``V <- U @ B`` writes arena bytes that
        ``U`` (another allocation) also covers.
        """
        t = (ROOT_TEMP, 0, 4, 4, 0, 0, 4, 4)
        u = (ROOT_TEMP, 256, 4, 4, 0, 0, 4, 4)
        v = (ROOT_TEMP, 320, 4, 4, 0, 0, 4, 4)
        b = (ROOT_B, 0, 4, 4, 0, 0, 4, 4)
        plan = SimpleNamespace(
            branches=(), dtype=np.dtype("float64"), arena_bytes=448,
            regions=(t, u, v, b),
            ops_quiet=((OP_GEMM, 0, 3, 0, 1.0, 0.0),
                       (OP_GEMM, 3, 3, 1, 1.0, 0.0),
                       (OP_GEMM, 1, 3, 2, 1.0, 0.0)),
        )
        fused = fuse_plan(plan)
        assert [op[6] for s in fused.steps for op in s[1]] == [
            False, True, False]
        assert fused.direct_off == _align_up(448)
        assert fused.arena_bytes == _align_up(448) + _align_up(16 * 8)

        buf = np.zeros(fused.arena_bytes, dtype=np.uint8)
        arena = buf[:448].view(np.float64)
        views = [arena[off:off + 16].reshape((4, 4), order="F")
                 for off in (0, 32, 40)]
        rng = np.random.default_rng(5)
        views[0][...] = rng.standard_normal((4, 4))
        bm = np.asfortranarray(rng.standard_normal((4, 4)))
        expect_t = views[0] @ bm
        expect_v = (bm @ bm) @ bm
        ctx = ExecutionContext()
        run_fused(fused, views + [bm], (1.0, -1.0, 0.0, -0.0), ctx, buf)
        np.testing.assert_allclose(views[0], expect_t, rtol=1e-12)
        np.testing.assert_allclose(views[2], expect_v, rtol=1e-12)
        assert ctx.kernel_calls["dgemm"] == 3

    def test_arena_extends_past_plan_bytes(self):
        """The fused arena is the plan's plus at most one aligned slot
        for the largest product."""
        for m, k, n in SHAPES:
            plan = compile_plan(_sig(m, k, n))
            largest = max(
                plan.regions[op[3]][6] * plan.regions[op[3]][7]
                for op in plan.ops_quiet if op[0] == OP_GEMM
            ) * plan.dtype.itemsize
            fused = plan.fused
            assert fused.arena_bytes >= plan.arena_bytes
            assert (fused.arena_bytes
                    <= _align_up(plan.arena_bytes) + _align_up(largest))
            if fused.direct_off is not None:
                assert fused.direct_off >= plan.arena_bytes

    def test_parallel_plan_children_fused(self):
        cfg = GemmConfig(cutoff=CUT, fuse=True)
        sig = signature_for("parallel", 32, 32, 32, False, False,
                            False, True, "float64", cfg,
                            max_parallel_depth=1)
        plan = compile_plan(sig)
        assert plan.branches
        assert all(child.fused is not None
                   for *_ids, child in plan.branches)

    def test_fuse_rejects_parallel_plan(self):
        cfg = GemmConfig(cutoff=CUT)
        sig = signature_for("parallel", 32, 32, 32, False, False,
                            False, True, "float64", cfg,
                            max_parallel_depth=1)
        with pytest.raises(ValueError):
            fuse_plan(compile_plan(sig))

    def test_fuse_knob_is_validated(self):
        with pytest.raises(ArgumentError):
            GemmConfig(fuse="yes")


# ---------------------------------------------------------------------- #
class TestFusedNumerics:
    @pytest.mark.parametrize("m,k,n", SHAPES)
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_reference_tolerance_and_determinism(self, m, k, n, beta):
        rng = np.random.default_rng(7)
        a, b, c = _mats(rng, m, k, n)
        expect = 1.5 * (a @ b) + (beta * c if beta else 0.0)
        plan = compile_plan(_sig(m, k, n, beta=beta))
        got1 = _run(plan, a, b, c.copy(order="F"), 1.5, beta)
        got2 = _run(plan, a, b, c.copy(order="F"), 1.5, beta)
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got1 - expect)) <= 1e-9 * scale
        assert np.array_equal(got1, got2)   # deterministic replay

    @pytest.mark.parametrize("scheme",
                             [s for s in SCHEME_NAMES if s != "auto"])
    def test_every_scheme(self, scheme):
        rng = np.random.default_rng(11)
        a, b, c = _mats(rng, 24, 24, 24)
        plan = compile_plan(_sig(24, 24, 24, beta=0.5, scheme=scheme,
                                 cutoff=SimpleCutoff(6)))
        got = _run(plan, a, b, c.copy(order="F"), 2.0, 0.5)
        expect = 2.0 * (a @ b) + 0.5 * c
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got - expect)) <= 1e-9 * scale

    def test_complex_dtype(self):
        rng = np.random.default_rng(13)
        a, b, c = _mats(rng, 20, 20, 20, dtype="complex128")
        plan = compile_plan(_sig(20, 20, 20, beta=0.5,
                                 dtype="complex128"))
        got = _run(plan, a, b, c.copy(order="F"), 1.0 + 2.0j, 0.5)
        expect = (1.0 + 2.0j) * (a @ b) + 0.5 * c
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got - expect)) <= 1e-9 * scale

    @pytest.mark.parametrize("m,k,n", SHAPES)
    def test_charge_parity_with_interpreted(self, m, k, n):
        """Aggregate fused charging equals per-op interpreted charging
        exactly — calls, flops, and the mul/add split."""
        rng = np.random.default_rng(5)
        a, b, c = _mats(rng, m, k, n)
        ctx_f, ctx_i = ExecutionContext(), ExecutionContext()
        _run(compile_plan(_sig(m, k, n, beta=0.5)), a, b,
             c.copy(order="F"), 1.5, 0.5, ctx=ctx_f)
        _run(compile_plan(_sig(m, k, n, beta=0.5, fuse=False)), a, b,
             c.copy(order="F"), 1.5, 0.5, ctx=ctx_i)
        assert ctx_f.kernel_calls == ctx_i.kernel_calls
        assert ctx_f.flops == ctx_i.flops
        assert ctx_f.mul_flops == ctx_i.mul_flops
        assert ctx_f.add_flops == ctx_i.add_flops

    def test_direct_scratch_views_are_f_contiguous(self):
        """The direct-product scratch slot is Fortran-ordered like every
        plan region, so ``beta != 0`` combines walk matching layouts."""
        rng = np.random.default_rng(14)
        a, b, c = _mats(rng, 33, 12, 29)
        plan = compile_plan(_sig(33, 12, 29, beta=0.5))
        got = _run(plan, a, b, c.copy(order="F"), 1.5, 0.5)
        views = [s for _buf, bound in plan.fused._bind_cache.values()
                 for s in bound.values()]
        assert views
        assert all(s.flags.f_contiguous for s in views)
        # at least one slot is 2-D enough for the order to matter
        assert any(not s.flags.c_contiguous for s in views)
        expect = 1.5 * (a @ b) + 0.5 * c
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got - expect)) <= 1e-9 * scale

    def test_trace_and_dry_fall_back_to_interpreted(self):
        rng = np.random.default_rng(3)
        a, b, c = _mats(rng, 16, 16, 16)
        plan = compile_plan(_sig(16, 16, 16))
        ctx_t = ExecutionContext(trace=True)
        got = _run(plan, a, b, c.copy(order="F"), 1.0, 0.0, ctx=ctx_t)
        # the interpreted fallback is bit-identical to an unfused plan
        ref = _run(compile_plan(_sig(16, 16, 16, fuse=False)), a, b,
                   c.copy(order="F"), 1.0, 0.0)
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------- #
class TestFusedDriverPath:
    """dgefmm/pdgefmm with ``fuse=True`` — the conformance pins of
    tests/test_blas_conformance.py, replayed through fused execution."""

    def _fused(self, a, b, c, alpha=1.0, beta=0.0, cache=None, **kw):
        dgefmm(a, b, c, alpha, beta, cutoff=CUT,
               plan_cache=cache if cache is not None else PlanCache(),
               fuse=True, **kw)
        return c

    def test_beta_zero_overwrites_nan_c(self):
        rng = np.random.default_rng(0)
        a = np.asfortranarray(rng.standard_normal((17, 13)))
        b = np.asfortranarray(rng.standard_normal((13, 19)))
        c = np.full((17, 19), np.nan, order="F")
        got = self._fused(a, b, c)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, a @ b, atol=1e-9 * 20)

    def test_alpha_zero_skips_product(self):
        rng = np.random.default_rng(1)
        a = np.full((9, 7), np.nan, order="F")
        b = np.full((7, 11), np.nan, order="F")
        c = np.asfortranarray(rng.standard_normal((9, 11)))
        got = self._fused(a, b, c.copy(order="F"), alpha=0.0, beta=-1.5)
        np.testing.assert_array_equal(got, -1.5 * c)

    @pytest.mark.parametrize("m,k,n", [(0, 5, 7), (5, 0, 7), (5, 7, 0),
                                       (0, 0, 0), (12, 0, 9)])
    def test_zero_dim_early_outs(self, m, k, n):
        rng = np.random.default_rng(2)
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.asfortranarray(rng.standard_normal((m, n)))
        expect = 0.5 * c if k == 0 else np.zeros((m, n))
        got = self._fused(a, b, c.copy(order="F"), alpha=2.0, beta=0.5)
        np.testing.assert_array_equal(got, expect)

    def test_aliasing_c_is_a(self):
        rng = np.random.default_rng(4)
        a = np.asfortranarray(rng.standard_normal((12, 12)))
        b = np.asfortranarray(rng.standard_normal((12, 12)))
        expect = a @ b
        aa = a.copy(order="F")
        self._fused(aa, b, aa)
        np.testing.assert_allclose(aa, expect, atol=1e-10 * 12)

    def test_aliasing_c_is_b_accumulating(self):
        rng = np.random.default_rng(6)
        a = np.asfortranarray(rng.standard_normal((11, 11)))
        b = np.asfortranarray(rng.standard_normal((11, 11)))
        expect = 1.5 * (a @ b) + 0.5 * b
        bb = b.copy(order="F")
        self._fused(a, bb, bb, alpha=1.5, beta=0.5)
        np.testing.assert_allclose(bb, expect, atol=1e-10 * 12)

    def test_fuse_mutation_misses_cache(self):
        rng = np.random.default_rng(8)
        a, b, c = _mats(rng, 16, 16, 16)
        cache = PlanCache()
        dgefmm(a, b, c.copy(order="F"), cutoff=CUT, plan_cache=cache)
        dgefmm(a, b, c.copy(order="F"), cutoff=CUT, plan_cache=cache,
               fuse=True)
        assert (cache.misses, cache.hits) == (2, 0)

    def test_parallel_driver_fused(self):
        rng = np.random.default_rng(9)
        a, b, c = _mats(rng, 48, 48, 48)
        expect = 1.5 * (a @ b) + 0.5 * c
        got = c.copy(order="F")
        pdgefmm(a, b, got, 1.5, 0.5, cutoff=SimpleCutoff(12),
                plan_cache=PlanCache(), fuse=True, workers=3)
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got - expect)) <= 1e-9 * scale


# ---------------------------------------------------------------------- #
class TestFusedService:
    def test_service_round_trip_fused(self):
        from repro.serve.service import GemmService

        rng = np.random.default_rng(10)
        a, b, c = _mats(rng, 24, 20, 28)
        ref_cache = PlanCache()
        expect = np.array(c, copy=True)
        dgefmm(a, b, expect, 1.0, 0.5, cutoff=CUT,
               plan_cache=ref_cache, fuse=True)
        with GemmService(workers=2, cutoff=CUT, fuse=True) as svc:
            futs = [svc.submit(a, b, c, 1.0, 0.5) for _ in range(8)]
            for fut in futs:
                # fused serving is bit-identical to fused dgefmm
                assert np.array_equal(fut.result(30.0), expect)
            assert svc.plan_cache.stats()["plans"] == 1

    def test_submit_fuse_override(self):
        from repro.serve.service import GemmService

        rng = np.random.default_rng(12)
        a, b, _c = _mats(rng, 16, 16, 16)
        with GemmService(workers=1, cutoff=CUT) as svc:
            svc.submit(a, b).result(30.0)
            svc.submit(a, b, fuse=True).result(30.0)
            # distinct signatures: interpreted and fused never collide
            assert svc.plan_cache.stats()["plans"] == 2


# ---------------------------------------------------------------------- #
class TestFusedFuzz:
    def test_small_fused_campaign(self):
        from repro.fuzz.runner import run_fuzz

        rep = run_fuzz(cases=60, seed=20250808, fuse=True)
        assert rep.ok, rep.failures
