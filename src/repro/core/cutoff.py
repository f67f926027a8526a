"""Cutoff criteria: when to stop the Strassen recursion (Sections 2, 3.4).

A *cutoff criterion* decides, for a product of dimensions (m, k, n) at a
given recursion depth, whether another level of Strassen's construction
pays off.  Each criterion here implements ``stop(m, k, n, depth=0) ->
bool``: True means "use the standard algorithm for this product"; False
means "apply one more Strassen level".  ``depth`` is the number of
recursion levels already taken above this node — the traversal core
passes it at every call, so criteria that depend on it (like
:class:`DepthCutoff`) need no mutable state.

The paper's progression of criteria, all implemented:

- **eq. (7)** :class:`TheoreticalCutoff` — the operation-count condition
  ``mkn <= 4(mk + kn + mn)``; gives the famous cutoff 12 for square
  matrices, far below practical crossovers.
- **eq. (10)** square criterion ``m <= tau`` with an empirically measured
  crossover ``tau`` (Table 2: RS/6000 199, C90 129, T3D 325).
- **eq. (11)** :class:`SimpleCutoff` — ``m <= tau or k <= tau or
  n <= tau`` (used by Douglas et al.'s DGEMMW); misses beneficial
  recursions on long-thin problems.
- **eq. (12)** :class:`HighamCutoff` — Higham's scaling of (7):
  ``mkn <= tau * (nk + mn + mk) / 3``; assumes DGEMM performance is
  symmetric in the dimensions, which Table 3 refutes.
- **eq. (13)/(14)** :class:`PlaneCutoff` — the paper's asymmetric
  three-parameter condition ``mkn <= tau_m*nk + tau_k*mn + tau_n*mk``,
  with parameters from three long-thin crossover experiments.
- **eq. (15)** :class:`HybridCutoff` — the paper's final criterion: the
  plane condition governs mixed regimes, but recursion is always allowed
  when all dims exceed tau and always stopped when all dims are <= tau.

Every criterion is a frozen dataclass — hashable, printable, cheap to
evaluate inside the recursion, and safe to share across concurrent
multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CutoffCriterion",
    "TheoreticalCutoff",
    "SquareCutoff",
    "SimpleCutoff",
    "HighamCutoff",
    "PlaneCutoff",
    "HybridCutoff",
    "AlwaysRecurse",
    "NeverRecurse",
    "DepthCutoff",
]


@dataclass(frozen=True)
class CutoffCriterion:
    """Base class: subclasses decide when to stop recursing."""

    def stop(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        """True = multiply (m,k,n) with the standard algorithm.

        ``depth`` is the number of recursion levels already applied
        above this product (0 at the driver's entry).  Dimension-based
        criteria ignore it.
        """
        raise NotImplementedError

    def recurse(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        """Convenience negation of :meth:`stop`."""
        return not self.stop(m, k, n, depth)


@dataclass(frozen=True)
class TheoreticalCutoff(CutoffCriterion):
    """Paper eq. (7): stop iff ``mkn <= 4(mk + kn + mn)``.

    Derived from the operation-count model (stop when one Strassen level
    followed by the standard algorithm costs no less than the standard
    algorithm alone).  Square solution: stop iff m <= 12.
    """

    def stop(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        return m * k * n <= 4 * (m * k + k * n + m * n)


@dataclass(frozen=True)
class SquareCutoff(CutoffCriterion):
    """Paper eq. (10): stop iff ``m <= tau`` — meaningful for square inputs.

    For non-square inputs it examines only ``m``; prefer
    :class:`SimpleCutoff` or :class:`HybridCutoff` for general shapes.
    """

    tau: int

    def stop(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        return m <= self.tau


@dataclass(frozen=True)
class SimpleCutoff(CutoffCriterion):
    """Paper eq. (11): stop iff any dimension is <= tau (DGEMMW's rule)."""

    tau: int

    def stop(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        return m <= self.tau or k <= self.tau or n <= self.tau


@dataclass(frozen=True)
class HighamCutoff(CutoffCriterion):
    """Paper eq. (12): stop iff ``mkn <= tau*(nk + mn + mk)/3``.

    Scales the theoretical condition (7) by tau*(4/3)/4 so it reduces to
    ``m <= tau`` when m = k = n.
    """

    tau: int

    def stop(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        return 3 * m * k * n <= self.tau * (n * k + m * n + m * k)


@dataclass(frozen=True)
class PlaneCutoff(CutoffCriterion):
    """Paper eq. (13): stop iff ``mkn <= tau_m*nk + tau_k*mn + tau_n*mk``.

    Equivalently (eq. 14) ``1 <= tau_m/m + tau_k/k + tau_n/n``.  The three
    parameters come from long-thin crossover experiments (Table 3) and
    capture the measured asymmetry of DGEMM in its three dimensions.
    """

    tau_m: int
    tau_k: int
    tau_n: int

    def stop(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        return (
            m * k * n
            <= self.tau_m * n * k + self.tau_k * m * n + self.tau_n * m * k
        )


@dataclass(frozen=True)
class HybridCutoff(CutoffCriterion):
    """Paper eq. (15): the paper's production criterion.

    stop iff::

        ( plane(m,k,n) and (m <= tau or k <= tau or n <= tau) )
        or ( m <= tau and k <= tau and n <= tau )

    so recursion is always applied when every dimension exceeds tau
    (matching the square criterion), always stopped when every dimension
    is at most tau, and in mixed regimes the asymmetric plane condition
    (13) decides — allowing the extra beneficial recursion level on
    long-thin problems that criterion (11) forbids.
    """

    tau: int
    tau_m: int
    tau_k: int
    tau_n: int

    def plane(self) -> PlaneCutoff:
        """The embedded eq. (13) condition."""
        return PlaneCutoff(self.tau_m, self.tau_k, self.tau_n)

    def stop(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        small_m = m <= self.tau
        small_k = k <= self.tau
        small_n = n <= self.tau
        if small_m and small_k and small_n:
            return True
        if not (small_m or small_k or small_n):
            return False
        return self.plane().stop(m, k, n)


@dataclass(frozen=True)
class AlwaysRecurse(CutoffCriterion):
    """Recurse whenever the dimensions permit (full recursion).

    Used by the operation-count analyses (eq. 4 with m0 = 1) and by tests;
    the driver still stops when a dimension drops below 2.
    """

    def stop(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        return False


@dataclass(frozen=True)
class NeverRecurse(CutoffCriterion):
    """Always use the standard algorithm — turns DGEFMM into DGEMM."""

    def stop(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        return True


@dataclass(frozen=True)
class DepthCutoff(CutoffCriterion):
    """Stop after exactly ``depth`` recursion levels.

    The Table 5 experiment ("smallest matrix order that does a given
    number of recursions") and the closed-form op-count checks both need
    depth-controlled recursion.  Since the traversal passes the current
    depth to :meth:`stop`, this criterion is as frozen and shareable as
    every other — including across the concurrent recursions of
    :func:`~repro.core.parallel.pdgefmm`.
    """

    depth: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")

    def stop(self, m: int, k: int, n: int, depth: int = 0) -> bool:
        return depth >= self.depth
