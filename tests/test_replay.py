"""One inline replay loop for unfused plans (:func:`repro.plan.fuse.run_fused`).

Plain numeric replay of an ``accuracy="fast"`` plan runs the plan's
lowered program through the inline loop; a traced context
(``ExecutionContext(trace=True)``) replays the same plan through the
per-op kernel loop.  The contract pinned here:

- both loops give bit-identical results and equal ``kernel_calls``,
  ``mul_flops`` and ``add_flops``, and both match the eager recursive
  ``dgefmm``/``pdgefmm`` bit for bit;
- the lowering pass rejects an op stream that a per-op kernel would
  have rejected;
- a plain replay calls none of the per-op kernel wrappers.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.blas import addsub
from repro.blas.addsub import BlockKernels
from repro.context import ExecutionContext
from repro.core.config import GemmConfig
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.parallel import pdgefmm
from repro.errors import ArgumentError, DimensionError
from repro.plan import compile_plan, execute_plan
from repro.plan.compiler import signature_for
from repro.plan.fuse import FS_EW, lower_ops, run_fused
from repro.plan.ops import (
    OP_ACCUM,
    OP_AXPBY,
    OP_GEMM,
    OP_MADD,
    ROOT_A,
    ROOT_B,
    ROOT_C,
)

CUT = SimpleCutoff(8)

#: (m, k, n): even, odd peeled at every level, skinny
SHAPES = [(32, 32, 32), (37, 29, 41), (25, 9, 31)]


def _mats(rng, m, k, n, dtype):
    def mk(r, c):
        x = rng.standard_normal((r, c))
        if np.dtype(dtype).kind == "c":
            x = x + 1j * rng.standard_normal((r, c))
        return np.asfortranarray(x.astype(dtype))
    return mk(m, k), mk(k, n), mk(m, n)


def _tallies(ctx):
    return (dict(ctx.kernel_calls), ctx.mul_flops, ctx.add_flops)


def _replay(plan, a, b, c, alpha, beta, trace, workers=1):
    ctx = ExecutionContext(trace=trace)
    out = c.copy(order="F")
    execute_plan(plan, a, b, out, alpha, beta, ctx=ctx, workers=workers)
    return out, ctx


def _eager(kind, a, b, c, alpha, beta, backend, workers=1):
    ctx = ExecutionContext()
    out = c.copy(order="F")
    if kind == "serial":
        dgefmm(a, b, out, alpha, beta, cutoff=CUT, backend=backend,
               ctx=ctx)
    else:
        pdgefmm(a, b, out, alpha, beta, cutoff=CUT, backend=backend,
                ctx=ctx, workers=workers, max_parallel_depth=1)
    return out, ctx


def _plan(kind, m, k, n, alpha, beta, dtype, backend):
    cfg = GemmConfig(cutoff=CUT, backend=backend)
    return compile_plan(signature_for(
        kind, m, k, n, False, False, alpha == 0.0, beta == 0.0, dtype,
        cfg, 1))


# ---------------------------------------------------------------------- #
class TestParity:
    @pytest.mark.parametrize("kind", ["serial", "parallel"])
    @pytest.mark.parametrize("m,k,n", SHAPES)
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (1.5, 0.5),
                                            (-1.0, 1.0), (1.0, -1.0)])
    @pytest.mark.parametrize("dtype", ["float64", "float32", "complex128"])
    @pytest.mark.parametrize("backend", ["substrate", "vendor"])
    def test_inline_equals_per_op_equals_eager(self, kind, m, k, n, alpha,
                                               beta, dtype, backend):
        rng = np.random.default_rng(m * 1000 + n)
        a, b, c = _mats(rng, m, k, n, dtype)
        plan = _plan(kind, m, k, n, alpha, beta, dtype, backend)
        assert plan.program is not None and plan.fused is None
        if kind == "parallel":
            assert plan.branches and plan.epilogue_program is not None
        got, ctx = _replay(plan, a, b, c, alpha, beta, trace=False,
                           workers=2)
        ref, ctx_t = _replay(plan, a, b, c, alpha, beta, trace=True,
                             workers=2)
        assert ctx_t.events and not ctx.events  # two different loops
        assert np.array_equal(got, ref)
        assert _tallies(ctx) == _tallies(ctx_t)
        eager, ctx_e = _eager(kind, a, b, c, alpha, beta, backend,
                              workers=2)
        assert np.array_equal(got, eager)
        assert _tallies(ctx) == _tallies(ctx_e)

    @pytest.mark.parametrize("kind", ["serial", "parallel"])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_alpha_zero(self, kind, beta):
        rng = np.random.default_rng(3)
        a, b, c = _mats(rng, 21, 19, 23, "float64")
        a[0, 0] = np.nan        # never read when alpha == 0
        plan = _plan(kind, 21, 19, 23, 0.0, beta, "float64", "substrate")
        got, ctx = _replay(plan, a, b, c, 0.0, beta, trace=False)
        ref, ctx_t = _replay(plan, a, b, c, 0.0, beta, trace=True)
        assert np.array_equal(got, ref)
        assert _tallies(ctx) == _tallies(ctx_t)
        assert np.array_equal(got, beta * c)

    def test_non_fast_plans_are_not_lowered(self):
        cfg = GemmConfig(cutoff=CUT, accuracy="compensated")
        plan = compile_plan(signature_for(
            "serial", 17, 17, 17, False, False, False, True, "float32",
            cfg))
        assert plan.program is None and plan.fused is None

    def test_read_only_output_rejected_at_entry(self):
        rng = np.random.default_rng(4)
        a, b, c = _mats(rng, 16, 16, 16, "float64")
        c.flags.writeable = False
        plan = _plan("serial", 16, 16, 16, 1.0, 0.0, "float64",
                     "substrate")
        with pytest.raises(ArgumentError):
            execute_plan(plan, a, b, c, ctx=ExecutionContext())


# ---------------------------------------------------------------------- #
def _hand_plan(regions, nb=8, backend="substrate", dtype="float64"):
    return SimpleNamespace(
        branches=(), dtype=np.dtype(dtype), arena_bytes=0, nb=nb,
        backend=backend, regions=regions)


class TestLoweringChecks:
    def _serial(self):
        return _plan("serial", 37, 29, 41, 1.0, 0.5, "float64",
                     "substrate")

    def test_injected_shape_mismatch_rejected(self):
        plan = self._serial()
        ops = list(plan.ops_quiet)
        i = next(j for j, op in enumerate(ops) if op[0] == OP_MADD)
        _, xi, yi, oi, al = ops[i]
        shape = plan.regions[oi][6:8]
        other = next(r for r, d in enumerate(plan.regions)
                     if d[6:8] != shape)
        ops[i] = (OP_MADD, xi, other, oi, al)
        with pytest.raises(DimensionError):
            lower_ops(plan, tuple(ops))

    def test_injected_gemm_mismatch_rejected(self):
        plan = self._serial()
        ops = list(plan.ops_quiet)
        i = next(j for j, op in enumerate(ops) if op[0] == OP_GEMM)
        _, ai, bi, ci, al, be = ops[i]
        ops[i] = (OP_GEMM, ai, ai, ci, al, be)
        if plan.regions[ai][6:8] == plan.regions[bi][6:8]:
            ops[i] = (OP_GEMM, ai, bi, ai, al, be)
        with pytest.raises(DimensionError):
            lower_ops(plan, tuple(ops))
        with pytest.raises(DimensionError):
            lower_ops(plan, tuple(ops), direct=True)

    def test_accum_into_its_input_rejected(self):
        x = (ROOT_C, 0, 4, 4, 0, 0, 4, 4)
        with pytest.raises(ArgumentError):
            lower_ops(_hand_plan((x,)), ((OP_ACCUM, 0, 0),))

    def test_compiled_plans_pass(self):
        plan = self._serial()
        program = lower_ops(plan, plan.ops_quiet)
        flat = [op for s in program.steps if s[0] == FS_EW
                for op in s[1]]
        assert flat == [op for op in plan.ops_quiet if op[0] != 5]


# ---------------------------------------------------------------------- #
class TestNoPerOpDispatch:
    def test_plain_replay_never_calls_kernel_wrappers(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("per-op kernel called in plain replay")

        monkeypatch.setattr(addsub, "madd", boom)
        monkeypatch.setitem(addsub.KERNEL_TABLES, "fast",
                            BlockKernels(boom, boom, boom, boom))
        monkeypatch.setattr("repro.plan.executor.dgemm", boom)
        rng = np.random.default_rng(5)
        a, b, c = _mats(rng, 37, 29, 41, "float64")
        for kind in ("serial", "parallel"):
            plan = _plan(kind, 37, 29, 41, 1.5, 0.5, "float64",
                         "substrate")
            got, _ctx = _replay(plan, a, b, c, 1.5, 0.5, trace=False)
            expect = 1.5 * (a @ b) + 0.5 * c
            np.testing.assert_allclose(got, expect, rtol=1e-10,
                                       atol=1e-10)
            # ... while the per-op path does reach the patched kernels
            with pytest.raises(AssertionError):
                _replay(plan, a, b, c, 1.5, 0.5, trace=True)


# ---------------------------------------------------------------------- #
class TestAxpbyRewrite:
    """``alpha=-1, beta=1`` and ``alpha=1, beta=-1`` AXPBY run without a
    temporary; the bits must equal the generic formula's."""

    @staticmethod
    def _operands(dtype):
        rng = np.random.default_rng(6)
        special = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -2.5])
        xs, ys = np.meshgrid(special, special)
        x = np.concatenate([xs.ravel(), rng.standard_normal(64)])
        y = np.concatenate([ys.ravel(), rng.standard_normal(64)])

        def build(re, shift):
            out = np.empty(re.shape, dtype=dtype)
            out.real = re
            if out.dtype.kind == "c":
                out.imag = np.roll(re, shift)
            return np.asfortranarray(out.reshape((len(re) // 4, 4)))

        return build(x, 7), build(y, 3)

    @staticmethod
    def _generic(alpha, x, beta, y):
        """The kernel's formula before the rewrite (beta != 0)."""
        y = y.copy(order="F")
        if beta != 1.0:
            y *= beta
        if alpha == 1.0:
            y += x
        elif alpha != 0.0:
            y += alpha * x
        return y

    @staticmethod
    def _same_bits(got, want):
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        kind = {4: np.uint32, 8: np.uint64, 16: np.uint64}[
            got.dtype.itemsize]
        assert np.array_equal(got[~nan].view(kind), want[~nan].view(kind))

    def _inline(self, alpha, x, beta, y):
        regions = (
            (ROOT_A, 0, *x.shape, 0, 0, *x.shape),
            (ROOT_B, 0, *y.shape, 0, 0, *y.shape),
        )
        program = lower_ops(_hand_plan(regions, dtype=y.dtype),
                            ((OP_AXPBY, alpha, 0, beta, 1),))
        out = y.copy(order="F")
        ctx = ExecutionContext()
        run_fused(program, [x, out], (1.0, -1.0, 0.0, -0.0), ctx, None)
        assert ctx.kernel_calls["axpby"] == 1
        return out

    @pytest.mark.parametrize("dtype", ["float64", "float32",
                                       "complex128"])
    @pytest.mark.parametrize("alpha,beta", [(-1.0, 1.0), (1.0, -1.0)])
    def test_bits_match_generic_formula(self, dtype, alpha, beta):
        x, y = self._operands(dtype)
        with np.errstate(invalid="ignore"):
            want = self._generic(alpha, x, beta, y)
            got = addsub.axpby(alpha, x, beta, y.copy(order="F"))
            inline = self._inline(alpha, x, beta, y)
        self._same_bits(got, want)
        self._same_bits(inline, want)


# ---------------------------------------------------------------------- #
def _fixup_tallies(ctx):
    return {name: ctx.kernel_calls.get(name, 0) for name in ("dger", "dgemv")}


def _planned_fixups(plan):
    calls = plan.total_counts()["kernel_calls"]
    return {name: calls.get(name, 0) for name in ("dger", "dgemv")}


class TestVendorFixups:
    """Peeling fix-ups on the vendor DGEMV (``backend="vendor"``).

    37×29×41 peels at every level under the 2×2 schemes and, with
    remainders 1, 2 and 2 modulo 3, peels one and two indices under
    ``laderman``'s ⟨3,3,3⟩ partition."""

    M, K, N = 37, 29, 41
    CASES = pytest.mark.parametrize("scheme", ["auto", "laderman"])
    PEELS = pytest.mark.parametrize("peel", ["tail", "head"])
    BETAS = pytest.mark.parametrize("beta", [0.0, 0.5])
    DTYPES = pytest.mark.parametrize("dtype", ["float32", "complex128"])

    def _cfg(self, scheme, peel, fuse=False, backend="vendor"):
        return dict(cutoff=CUT, scheme=scheme, peel=peel, backend=backend,
                    fuse=fuse)

    def _mats(self, dtype):
        return _mats(np.random.default_rng(17), self.M, self.K, self.N,
                     dtype)

    @CASES
    @PEELS
    @BETAS
    @DTYPES
    def test_unfused_replay_equals_eager(self, scheme, peel, beta, dtype):
        a, b, c = self._mats(dtype)
        cfg = self._cfg(scheme, peel)
        plan = compile_plan(signature_for(
            "serial", self.M, self.K, self.N, False, False, False,
            beta == 0.0, dtype, GemmConfig(**cfg)))
        assert plan.fused is None and plan.counts["peel"]
        eager, ctx_e = c.copy(order="F"), ExecutionContext()
        dgefmm(a, b, eager, 1.5, beta, ctx=ctx_e, **cfg)
        for trace in (False, True):
            got, ctx = _replay(plan, a, b, c, 1.5, beta, trace=trace)
            assert np.array_equal(got, eager), trace
            assert _tallies(ctx) == _tallies(ctx_e)
            assert _fixup_tallies(ctx) == _planned_fixups(plan)
        assert _planned_fixups(plan)["dgemv"]

    @CASES
    @PEELS
    @BETAS
    @DTYPES
    def test_parallel_plan_equals_live(self, scheme, peel, beta, dtype):
        from repro.plan import PlanCache

        a, b, c = self._mats(dtype)
        cfg = self._cfg(scheme, peel)
        outs, ctxs = [], []
        for cache in (None, PlanCache()):
            out, ctx = c.copy(order="F"), ExecutionContext()
            pdgefmm(a, b, out, 1.5, beta, ctx=ctx, workers=2,
                    max_parallel_depth=1, plan_cache=cache, **cfg)
            outs.append(out)
            ctxs.append(ctx)
        assert np.array_equal(outs[0], outs[1])
        assert _tallies(ctxs[0]) == _tallies(ctxs[1])
        plan = cache.get(signature_for(
            "parallel", self.M, self.K, self.N, False, False, False,
            beta == 0.0, dtype, GemmConfig(**cfg), 1))
        assert _fixup_tallies(ctxs[1]) == _planned_fixups(plan)

    @CASES
    @PEELS
    @BETAS
    @DTYPES
    @pytest.mark.parametrize("backend", ["substrate", "vendor"])
    def test_fused_replay_runs_fixups_on_matmul(self, monkeypatch, scheme,
                                                peel, beta, dtype, backend):
        """A fused program's fix-ups run on the vendor GEMV whatever the
        backend: replays are deterministic, within the oracle's
        tolerance, and never reach ``einsum``."""
        from repro.fuzz.oracle import tolerance_for
        from repro.plan import PlanCache

        a, b, c = self._mats(dtype)
        cfg = self._cfg(scheme, peel, fuse=True, backend=backend)
        cache = PlanCache()
        first = c.copy(order="F")
        dgefmm(a, b, first, 1.5, beta, plan_cache=cache, **cfg)
        plan = cache.get(signature_for(
            "serial", self.M, self.K, self.N, False, False, False,
            beta == 0.0, dtype, GemmConfig(**cfg)))
        assert plan.fused is not None

        def boom(*args, **kwargs):
            raise AssertionError("einsum reached from a fused replay")

        monkeypatch.setattr(np, "einsum", boom)
        again, ctx = c.copy(order="F"), ExecutionContext()
        dgefmm(a, b, again, 1.5, beta, plan_cache=cache, ctx=ctx, **cfg)
        monkeypatch.undo()
        assert np.array_equal(first, again)
        assert _fixup_tallies(ctx) == _planned_fixups(plan)
        wide = np.complex128 if dtype == "complex128" else np.float64
        expect = 1.5 * (a.astype(wide) @ b.astype(wide))
        if beta:
            expect += beta * c.astype(wide)
        atol = tolerance_for(SimpleNamespace(dtype=dtype), expect)
        assert np.max(np.abs(again - expect)) <= atol
