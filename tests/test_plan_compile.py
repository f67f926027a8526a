"""Plan identity: ``compile_plan`` output is pinned by fingerprint.

Every :class:`~repro.plan.compiler.ExecutionPlan` the compiler emits is
hashed whole — the region table, every op (EVENT ops by the ``repr`` of
their :class:`~repro.context.RecursionEvent`), the epilogue, the branch
tuples recursively, the counts, the arena/peak/charge byte figures and
the lowered programs.  The expected digests below were produced by the
compiler that recorded every recursion node directly, before subtree
templates were memoized; any change to how a plan is compiled must
leave them untouched.

The sweep crosses serial and parallel plans, every registered scheme,
both peel sides, zero and nonzero beta, three dtypes, fused and unfused
lowering, a depth-sensitive criterion and odd peeled shapes.

The memo itself is pinned too: one compile calls ``decide`` once per
distinct subproblem, and memos never leak from one compile to the next.
"""

import hashlib

import pytest

from repro.blas.level3 import DEFAULT_TILE
from repro.core.config import GemmConfig
from repro.core.cutoff import DepthCutoff, SimpleCutoff
from repro.core.schemes import SCHEME_NAMES
from repro.plan import compiler
from repro.plan.compiler import compile_plan, signature_for
from repro.plan.ops import OP_EVENT, SymScalar, encode_scalar


def _ops_state(ops):
    return tuple(
        (op[0], repr(op[1])) if op[0] == OP_EVENT else op for op in ops
    )


def _program_state(program):
    if program is None:
        return None
    return (program.steps, program.arena_bytes)


def _counts_state(counts):
    return tuple(
        (key, tuple(val.items()) if isinstance(val, dict) else val)
        for key, val in counts.items()
    )


def _plan_state(plan):
    return (
        plan.m, plan.k, plan.n, str(plan.dtype), plan.nb, plan.backend,
        plan.accuracy,
        plan.regions,
        _ops_state(plan.ops),
        _ops_state(plan.epilogue),
        tuple((ai, bi, ci, _plan_state(child))
              for ai, bi, ci, child in plan.branches),
        _counts_state(plan.counts),
        plan.arena_bytes, plan.peak_bytes, plan.charge_bytes,
        _program_state(plan.program),
        _program_state(plan.epilogue_program),
        plan.fused is not None and plan.fused is plan.program,
    )


def fingerprint(plan) -> str:
    """Digest of everything a compiled plan carries."""
    return hashlib.sha256(repr(_plan_state(plan)).encode()).hexdigest()[:20]


def _sig(kind, m, k, n, *, beta_zero=True, alpha_zero=False, scheme="auto",
         peel="tail", cutoff=SimpleCutoff(5), dtype="float64", fuse=False,
         depth=1):
    cfg = GemmConfig(scheme=scheme, peel=peel, cutoff=cutoff,
                     nb=DEFAULT_TILE, backend="substrate", fuse=fuse,
                     dtype=dtype)
    return signature_for(kind, m, k, n, False, False, alpha_zero,
                         beta_zero, dtype, cfg,
                         depth if kind == "parallel" else 0)


def _cases():
    cases = {}
    # every scheme, both peel sides, both beta classes, serial and
    # parallel, on one odd shape that recurses two to three levels
    for scheme in SCHEME_NAMES:
        for peel in ("tail", "head"):
            for beta_zero in (True, False):
                for kind in ("serial", "parallel"):
                    key = (f"{kind}-{scheme}-{peel}-"
                           f"{'b0' if beta_zero else 'b'}")
                    cases[key] = _sig(kind, 37, 45, 29, scheme=scheme,
                                      peel=peel, beta_zero=beta_zero)
    # dtypes x fused lowering, serial and two-level parallel
    for dtype in ("float64", "float32", "complex128"):
        for fuse in (False, True):
            for beta_zero in (True, False):
                for kind in ("serial", "parallel"):
                    key = (f"{kind}-{dtype}-{'fuse' if fuse else 'plain'}-"
                           f"{'b0' if beta_zero else 'b'}")
                    cases[key] = _sig(kind, 53, 31, 47, dtype=dtype,
                                      fuse=fuse, beta_zero=beta_zero,
                                      cutoff=SimpleCutoff(6), depth=2)
    # a depth-sensitive criterion: the memo key must carry the depth
    for scheme in ("auto", "strassen2", "bdpz"):
        for beta_zero in (True, False):
            for kind in ("serial", "parallel"):
                key = (f"{kind}-depth3-{scheme}-"
                       f"{'b0' if beta_zero else 'b'}")
                cases[key] = _sig(kind, 41, 38, 45, scheme=scheme,
                                  beta_zero=beta_zero,
                                  cutoff=DepthCutoff(3))
    # odd peeled shapes, head and tail, including the 3-level odd case
    # the plan selftest runs and the degenerate corners
    for m, k, n, tau in ((151, 163, 157, 20), (150, 211, 399, 19),
                         (63, 17, 95, 4), (1, 7, 9, 2), (8, 0, 8, 2),
                         (0, 4, 4, 2)):
        for peel in ("tail", "head"):
            for beta_zero in (True, False):
                key = (f"serial-{m}x{k}x{n}-{peel}-"
                       f"{'b0' if beta_zero else 'b'}")
                cases[key] = _sig("serial", m, k, n, peel=peel,
                                  beta_zero=beta_zero,
                                  cutoff=SimpleCutoff(tau))
    # the same shapes under another cutoff: memos must not cross
    # signatures
    for beta_zero in (True, False):
        key = f"serial-151x163x157-tau40-tail-{'b0' if beta_zero else 'b'}"
        cases[key] = _sig("serial", 151, 163, 157, beta_zero=beta_zero,
                          cutoff=SimpleCutoff(40))
    cases["parallel-151x163x157-head-b"] = _sig(
        "parallel", 151, 163, 157, peel="head", beta_zero=False,
        cutoff=SimpleCutoff(20), depth=2)
    cases["serial-alpha0-b"] = _sig("serial", 37, 45, 29, alpha_zero=True,
                                    beta_zero=False)
    cases["parallel-alpha0-b0"] = _sig("parallel", 37, 45, 29,
                                       alpha_zero=True)
    return cases


CASES = _cases()

#: digests of the plans compiled by the direct (unmemoized) recorder
GOLDEN = {
    "parallel-151x163x157-head-b": "c2eb3760af6300915d65",
    "parallel-alpha0-b0": "d4e072664a546d9ffb7d",
    "parallel-auto-head-b": "57b6d344befdb54646cd",
    "parallel-auto-head-b0": "586668adb8315eb5be51",
    "parallel-auto-tail-b": "e07654f0612396b3107c",
    "parallel-auto-tail-b0": "aafb6aa72bb68c33cb67",
    "parallel-bdpz-head-b": "f25439dab90fa25918cb",
    "parallel-bdpz-head-b0": "05185376a448a6ff7e20",
    "parallel-bdpz-tail-b": "20a4dc3ec9a2cb1623b7",
    "parallel-bdpz-tail-b0": "97d98304598193449c5a",
    "parallel-complex128-fuse-b": "14b9878d943afedbf1d4",
    "parallel-complex128-fuse-b0": "edd0804a25d886663069",
    "parallel-complex128-plain-b": "724550cbf937442a4f49",
    "parallel-complex128-plain-b0": "b54c810c672d3f63dc7b",
    "parallel-depth3-auto-b": "9ed741aa16897d61b03e",
    "parallel-depth3-auto-b0": "44587b3aa64013561fc0",
    "parallel-depth3-bdpz-b": "1653362d9892c2bb7d44",
    "parallel-depth3-bdpz-b0": "180e01663f42239408fe",
    "parallel-depth3-strassen2-b": "0245fcfac7ca1e998fed",
    "parallel-depth3-strassen2-b0": "0401d63c33f2693bdc1b",
    "parallel-float32-fuse-b": "b75e4575128dccebbe50",
    "parallel-float32-fuse-b0": "4b5d0645f1068d3666d9",
    "parallel-float32-plain-b": "9e3370f612af4c6a214c",
    "parallel-float32-plain-b0": "acc7db829f99435525c6",
    "parallel-float64-fuse-b": "d9778ded02da12b36bf6",
    "parallel-float64-fuse-b0": "8226c86ac25162278f8c",
    "parallel-float64-plain-b": "e05995d1f757bdd852b2",
    "parallel-float64-plain-b0": "a752ea777a4ac6c4ae62",
    "parallel-laderman-head-b": "85a4046619e908f225f4",
    "parallel-laderman-head-b0": "eb2d5d0a6f53da2ae909",
    "parallel-laderman-tail-b": "a226dc91a6ef31294474",
    "parallel-laderman-tail-b0": "f5d91d564a8168279436",
    "parallel-strassen1-head-b": "0fac28fc63a65148605d",
    "parallel-strassen1-head-b0": "586668adb8315eb5be51",
    "parallel-strassen1-tail-b": "c5ff1b52b317dfb08f19",
    "parallel-strassen1-tail-b0": "aafb6aa72bb68c33cb67",
    "parallel-strassen1_general-head-b": "0fac28fc63a65148605d",
    "parallel-strassen1_general-head-b0": "13001b9d2bd50424bb32",
    "parallel-strassen1_general-tail-b": "c5ff1b52b317dfb08f19",
    "parallel-strassen1_general-tail-b0": "23fd3b2e39fab71c88bf",
    "parallel-strassen2-head-b": "6a9ac3f478dfde783448",
    "parallel-strassen2-head-b0": "2931b53f9e42f848c4f9",
    "parallel-strassen2-tail-b": "611e559a8f2438af8714",
    "parallel-strassen2-tail-b0": "00e61fe9a9824803d138",
    "parallel-textbook-head-b": "67693c8b92123071f3e0",
    "parallel-textbook-head-b0": "a6876fb86879fae01475",
    "parallel-textbook-tail-b": "d664c1dd37728013e230",
    "parallel-textbook-tail-b0": "de64a0d07434e5d37af4",
    "serial-0x4x4-head-b": "e456a5a88387908e0a2f",
    "serial-0x4x4-head-b0": "e456a5a88387908e0a2f",
    "serial-0x4x4-tail-b": "e456a5a88387908e0a2f",
    "serial-0x4x4-tail-b0": "e456a5a88387908e0a2f",
    "serial-150x211x399-head-b": "67ee12bbb742b6b92724",
    "serial-150x211x399-head-b0": "791794fa0be0f1ebb1bf",
    "serial-150x211x399-tail-b": "3419c5a0035f4fcd390b",
    "serial-150x211x399-tail-b0": "0ec295770b92229acb66",
    "serial-151x163x157-head-b": "59c452232b40f2808501",
    "serial-151x163x157-head-b0": "e6de6e587d1ea81dffa6",
    "serial-151x163x157-tail-b": "046908502408604d8de1",
    "serial-151x163x157-tau40-tail-b": "f981145eead9be2cd99e",
    "serial-151x163x157-tau40-tail-b0": "d7f23f089a61c4901745",
    "serial-151x163x157-tail-b0": "f3ecfa52174588c45715",
    "serial-1x7x9-head-b": "615fd590c7345e72b8ff",
    "serial-1x7x9-head-b0": "1238025d9bf041cc5afc",
    "serial-1x7x9-tail-b": "615fd590c7345e72b8ff",
    "serial-1x7x9-tail-b0": "1238025d9bf041cc5afc",
    "serial-63x17x95-head-b": "d671a196bc6524c9c72a",
    "serial-63x17x95-head-b0": "e14ebb4e9860b18f6dc3",
    "serial-63x17x95-tail-b": "0091aafd6b1622393099",
    "serial-63x17x95-tail-b0": "5484eb90beabe76e1895",
    "serial-8x0x8-head-b": "83bc131bab074b48142a",
    "serial-8x0x8-head-b0": "e4bb3d3d50260f09ab95",
    "serial-8x0x8-tail-b": "83bc131bab074b48142a",
    "serial-8x0x8-tail-b0": "e4bb3d3d50260f09ab95",
    "serial-alpha0-b": "90d1ef8ca08b3f5130b3",
    "serial-auto-head-b": "6e449feb621be620674f",
    "serial-auto-head-b0": "27c9829df6ad1cfbfd19",
    "serial-auto-tail-b": "52bfcc3c1a1f667c15e7",
    "serial-auto-tail-b0": "cc53063bf413deddfc3f",
    "serial-bdpz-head-b": "eaa781b35de54582f1a4",
    "serial-bdpz-head-b0": "680edb32ff5b653d7a39",
    "serial-bdpz-tail-b": "28fd163ef3bfd519d5ba",
    "serial-bdpz-tail-b0": "37997b9566403c09f446",
    "serial-complex128-fuse-b": "fe29ffb690ca280bf170",
    "serial-complex128-fuse-b0": "4315d0d403b852bd423c",
    "serial-complex128-plain-b": "2b8f88955a9e21367113",
    "serial-complex128-plain-b0": "df747611a03c17fb0890",
    "serial-depth3-auto-b": "4013e5903e1f702556e7",
    "serial-depth3-auto-b0": "18f08d6cee47653af9d1",
    "serial-depth3-bdpz-b": "ca8dbf6563e0caaa48c0",
    "serial-depth3-bdpz-b0": "93f1654b81fab945c84a",
    "serial-depth3-strassen2-b": "a740562cba72fa0dade5",
    "serial-depth3-strassen2-b0": "0957c2426272d3d4ea21",
    "serial-float32-fuse-b": "2d5ab578fe9c54c1e01c",
    "serial-float32-fuse-b0": "a34e73cbd6fcc13cb47b",
    "serial-float32-plain-b": "ff599e16cda09cca2340",
    "serial-float32-plain-b0": "25a0b1b58f79e5ec36ca",
    "serial-float64-fuse-b": "a7a910a3d94a200d5193",
    "serial-float64-fuse-b0": "730cd6a566d8183a842c",
    "serial-float64-plain-b": "dd4fdc6d3ccfbd7a835b",
    "serial-float64-plain-b0": "9346f8b97ac377e4edfe",
    "serial-laderman-head-b": "85a4046619e908f225f4",
    "serial-laderman-head-b0": "eb2d5d0a6f53da2ae909",
    "serial-laderman-tail-b": "a226dc91a6ef31294474",
    "serial-laderman-tail-b0": "f5d91d564a8168279436",
    "serial-strassen1-head-b": "374c180457af367f938e",
    "serial-strassen1-head-b0": "27c9829df6ad1cfbfd19",
    "serial-strassen1-tail-b": "167354fa261dea8c78b9",
    "serial-strassen1-tail-b0": "cc53063bf413deddfc3f",
    "serial-strassen1_general-head-b": "374c180457af367f938e",
    "serial-strassen1_general-head-b0": "cfb2a4cc24aa3045ff74",
    "serial-strassen1_general-tail-b": "167354fa261dea8c78b9",
    "serial-strassen1_general-tail-b0": "84c315036cb2a3cc028f",
    "serial-strassen2-head-b": "e83a37acacf571f51ffe",
    "serial-strassen2-head-b0": "d1b7ba0facbc0088d24d",
    "serial-strassen2-tail-b": "8bc6d6a99cd4e0f0e408",
    "serial-strassen2-tail-b0": "af563461eb0fb4db0a41",
    "serial-textbook-head-b": "67693c8b92123071f3e0",
    "serial-textbook-head-b0": "a6876fb86879fae01475",
    "serial-textbook-tail-b": "d664c1dd37728013e230",
    "serial-textbook-tail-b0": "de64a0d07434e5d37af4",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_fingerprint_pinned(case):
    assert fingerprint(compile_plan(CASES[case])) == GOLDEN[case]


def test_sweep_covers_every_axis():
    sigs = list(CASES.values())
    assert {s.kind for s in sigs} == {"serial", "parallel"}
    assert set(SCHEME_NAMES) <= {s.scheme for s in sigs}
    assert {s.peel for s in sigs} == {"tail", "head"}
    assert {s.beta_zero for s in sigs} == {True, False}
    assert {s.dtype for s in sigs} == {"float64", "float32", "complex128"}
    assert {s.fuse for s in sigs} == {True, False}
    assert any(isinstance(s.cutoff, DepthCutoff) for s in sigs)


#: serve-style signatures: odd or rectangular shapes in 150..400 with the
#: cutoff ``min(m, k, n) // 8 + 1``, which recurses exactly three levels
SERVE_SHAPES = [(151, 163, 157), (237, 301, 389), (397, 155, 263),
                (173, 359, 211), (280, 250, 330)]


def _key(a, b, alpha, beta, depth, scheme):
    m, k = a.shape
    # repr keeps a symbol code (int) apart from a literal (float), and
    # signed zeros apart
    return (m, k, b.shape[1], depth, scheme,
            repr(encode_scalar(alpha)), repr(encode_scalar(beta)))


def _spy_decide(monkeypatch):
    calls = []
    real = compiler.decide

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(compiler, "decide", spy)
    return calls


@pytest.mark.parametrize("beta_zero", [True, False])
@pytest.mark.parametrize("shape", SERVE_SHAPES)
def test_decide_once_per_distinct_subproblem(monkeypatch, shape,
                                             beta_zero):
    m, k, n = shape
    sig = _sig("serial", m, k, n, beta_zero=beta_zero,
               cutoff=SimpleCutoff(min(shape) // 8 + 1))
    memo_fp = fingerprint(compile_plan(sig))

    # the direct walk: every recursive product recorded in place
    keys = []

    def direct(self, a, b, c, alpha, beta, depth, scheme):
        if a.shape[0] and b.shape[1] and a.shape[1] and alpha != 0.0:
            keys.append(_key(a, b, alpha, beta, depth, scheme))
        self.run(a, b, c, alpha, beta, depth, scheme)

    with monkeypatch.context() as mp:
        mp.setattr(compiler._SerialCompiler, "sub", direct)
        direct_plan = compile_plan(sig)
    assert fingerprint(direct_plan) == memo_fp
    nodes = direct_plan.counts["recurse"] + direct_plan.counts["base"]
    assert nodes == 1 + len(keys) and nodes >= 400

    calls = _spy_decide(monkeypatch)
    compile_plan(sig)
    # the root plus each distinct recursive product, once: 6 distinct
    # products below a beta = 0 root, 15 below a general one
    assert len(calls) == 1 + len(set(keys))
    assert 6 <= len(set(keys)) <= 15


def test_parallel_branches_share_one_memo(monkeypatch):
    sig = _sig("parallel", 151, 163, 157, beta_zero=False,
               cutoff=SimpleCutoff(20), depth=1)
    calls = _spy_decide(monkeypatch)
    plan = compile_plan(sig)
    assert len(plan.branches) == 7
    assert len({child.m for *_ids, child in plan.branches}) == 1
    # the seven same-shape branch products are one subproblem: its
    # subtree is recorded once and spliced into every branch plan
    by_depth = [args[3] for args in calls]
    assert by_depth.count(0) == 1
    assert by_depth.count(1) == 1
    assert max(by_depth) == 3


def test_memo_does_not_cross_signatures():
    x = "serial-151x163x157-tail-b"
    y = "serial-151x163x157-tau40-tail-b"
    first_y = fingerprint(compile_plan(CASES[y]))
    after_x = [fingerprint(compile_plan(CASES[s])) for s in (x, y, x)]
    assert after_x == [GOLDEN[x], GOLDEN[y], GOLDEN[x]]
    assert first_y == GOLDEN[y] != GOLDEN[x]


def test_memo_key_keeps_symbols_and_literals_apart():
    key = compiler._scalar_key
    # -alpha encodes as the int code 1, alpha as 0: neither may share a
    # template with the literal 1.0 or 0.0, nor a signed zero with 0.0
    assert key(-SymScalar("a")) != key(1.0)
    assert key(SymScalar("a")) != key(0.0)
    assert key(-0.0) != key(0.0)
    assert key(1.0) != key(1 + 0j)
    assert key(SymScalar("b")) == key(SymScalar("b"))
