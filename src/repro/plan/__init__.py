"""Execution-plan compilation, caching, and replay for DGEFMM.

The recursion that :func:`repro.core.dgefmm.dgefmm` walks — cutoff
tests (paper eq. 15), dynamic peeling, scheme dispatch, workspace
frames — is a pure function of the problem *signature* (dimensions,
scalar zero-classes, dtype, scheme, cutoff).  This package compiles
that walk once per signature into a flat, immutable
:class:`~repro.plan.compiler.ExecutionPlan`, caches plans in a
thread-safe LRU :class:`~repro.plan.cache.PlanCache`, and replays them
with :func:`~repro.plan.executor.execute_plan` at zero per-call
planning or allocation cost (pool-backed arenas, precomputed byte
offsets).  ``dgefmm(..., plan_cache=...)`` and ``pdgefmm(...,
plan_cache=...)`` wire the path in transparently; results are
bit-identical to the recursive drivers.

Every ``accuracy="fast"`` plan is lowered once, at compile time, into
a :class:`~repro.plan.fuse.FusedProgram` (``plan.program``) that plain
numeric replays run through one inline loop, with no per-op dispatch.
With ``fuse=True`` on :class:`~repro.core.config.GemmConfig`, that
program runs every base-case product in place with ``np.matmul``
(:func:`~repro.plan.fuse.fuse_plan`, also exposed as ``plan.fused``).
Fused replay is deterministic and charge-identical, but not
bit-identical to the unfused plan (different base-case kernel);
``fuse`` therefore keys the plan signature.
"""

from repro.plan.cache import PlanCache
from repro.plan.compiler import (
    ExecutionPlan,
    PlanSignature,
    compile_plan,
    signature_for,
)
from repro.plan.executor import execute_plan
from repro.plan.fuse import FusedProgram, fuse_plan

__all__ = [
    "PlanCache",
    "PlanSignature",
    "ExecutionPlan",
    "compile_plan",
    "signature_for",
    "execute_plan",
    "FusedProgram",
    "fuse_plan",
]
