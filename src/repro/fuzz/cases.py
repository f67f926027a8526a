"""The fuzz case space: drawing, materialization, and replay encoding.

A :class:`FuzzCase` is a *complete, reproducible* description of one
differential check — every knob that can change what DGEFMM computes,
plus the RNG seed for operand contents.  Cases serialize to plain JSON
dicts (``case_to_dict``/``case_from_dict``) so a failing draw can be
written to a replay file and re-run exactly with
``python -m repro fuzz --replay <file>``.

The drawing distribution is deliberately edge-heavy: zero and one
dimensions appear with fixed probability (the degenerate-GEMM contract),
``alpha``/``beta`` draw 0 often (the short-circuit classes), layouts
include non-contiguous and negative-stride views, C may alias A or B
(the overlap guard), and a ``beta == 0`` output may be pre-poisoned with
NaN (the overwrite-never-read contract).  Each case also draws its
kernel ``backend``, so the vendor base products and vendor fix-up
DGEMVs run on every path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Tuple

import numpy as np

from repro.blas.level3 import BACKENDS
from repro.core.schemes import SCHEME_NAMES

__all__ = [
    "FuzzCase",
    "draw_case",
    "materialize",
    "case_to_dict",
    "case_from_dict",
    "LAYOUTS",
    "SCHEMES",
    "DTYPES",
    "ACCURACIES",
]

#: operand memory layouts the materializer can produce
LAYOUTS = ("F", "C", "strided", "revrows", "revcols")

#: forceable scheme knob values (``dgefmm(scheme=...)``) — "auto" first,
#: then every scheme-registry entry, so newly registered schemes enter
#: the fuzz case space automatically
SCHEMES = SCHEME_NAMES

#: element types under test (the full precision matrix; ``object`` is
#: exercised by the dedicated precision tests, not the fuzz loop — its
#: Python-int arithmetic is orders of magnitude slower per case)
DTYPES = ("float64", "float32", "complex128", "complex64", "int64")

#: accuracy disciplines drawn for inexact dtypes; int64 always fuzzes
#: under "exact" (its only legal discipline)
ACCURACIES = ("fast", "compensated")

#: scalar pool: the zero class appears often, plus ±1 (the fast paths)
#: and generic values
_SCALARS = (0.0, 0.0, 1.0, 1.0, -1.0, 0.5, 2.0, -1.5, 3.25)

#: scalar pool for the exact (integer) cases: integral values only
_INT_SCALARS = (0.0, 0.0, 1.0, 1.0, -1.0, 2.0, 3.0, -2.0)

#: imaginary parts mixed into scalars for complex cases
_IMAGS = (0.0, 0.0, 0.5, -1.0, 0.25)


@dataclass(frozen=True)
class FuzzCase:
    """One differential check: problem, knobs, and operand seed."""

    m: int
    k: int
    n: int
    transa: bool
    transb: bool
    alpha: complex
    beta: complex
    dtype: str
    layout_a: str
    layout_b: str
    layout_c: str
    scheme: str
    peel: str
    tau: int
    workers: int
    depth: int
    alias: str      # "none" | "a" (C is A) | "b" (C is B)
    nan_c: bool     # pre-fill C with NaN (only drawn when beta == 0)
    pool: bool      # route parallel paths through a WorkspacePool
    seed: int       # operand-content RNG seed
    accuracy: str = "fast"   # rounding discipline (exact for int64)
    backend: str = "substrate"   # base-product and fix-up DGEMV kernel

    # ------------------------------------------------------------------ #
    def scalars(self) -> Tuple[Any, Any]:
        """``(alpha, beta)`` in the case's dtype scalar domain."""
        if self.dtype in ("complex128", "complex64"):
            return complex(self.alpha), complex(self.beta)
        if self.dtype == "int64":
            return int(self.alpha.real), int(self.beta.real)
        return float(self.alpha.real), float(self.beta.real)

    @property
    def parallel_applicable(self) -> bool:
        """Every case exercises pdgefmm: the parallel driver accepts the
        full scheme/peel knob set (schemes outside its parallel level
        vocabulary — textbook, laderman — fall back to serial inside
        the driver, which is itself worth differential coverage).
        """
        return True


def _draw_dim(rng: np.random.Generator, max_dim: int) -> int:
    """Edge-heavy dimension draw: 0 and 1 with fixed probability."""
    r = rng.random()
    if r < 0.06:
        return 0
    if r < 0.14:
        return 1
    return int(rng.integers(2, max_dim + 1))


def _draw_scalar(rng: np.random.Generator, dtype: str) -> complex:
    if dtype == "int64":
        return complex(_INT_SCALARS[rng.integers(0, len(_INT_SCALARS))], 0.0)
    re = float(_SCALARS[rng.integers(0, len(_SCALARS))])
    if dtype in ("complex128", "complex64"):
        im = float(_IMAGS[rng.integers(0, len(_IMAGS))])
        return complex(re, im)
    return complex(re, 0.0)


def draw_case(rng: np.random.Generator, max_dim: int = 32) -> FuzzCase:
    """Draw one :class:`FuzzCase` from the edge-heavy distribution."""
    m = _draw_dim(rng, max_dim)
    k = _draw_dim(rng, max_dim)
    n = _draw_dim(rng, max_dim)
    transa = bool(rng.random() < 0.5)
    transb = bool(rng.random() < 0.5)
    dtype = DTYPES[rng.choice(len(DTYPES), p=[0.4, 0.15, 0.15, 0.15, 0.15])]
    if dtype == "int64":
        accuracy = "exact"
    else:
        accuracy = "compensated" if rng.random() < 0.3 else "fast"
    alpha = _draw_scalar(rng, dtype)
    beta = _draw_scalar(rng, dtype)
    scheme = (
        "auto" if rng.random() < 0.55
        else SCHEMES[1 + rng.integers(0, len(SCHEMES) - 1)]
    )
    peel = "tail" if rng.random() < 0.7 else "head"
    layout_a = LAYOUTS[rng.integers(0, len(LAYOUTS))]
    layout_b = LAYOUTS[rng.integers(0, len(LAYOUTS))]
    layout_c = LAYOUTS[rng.integers(0, len(LAYOUTS))]

    # aliasing is only well-defined when op(.) leaves C's shape equal to
    # the input's ("a": C = A needs k == n and no transpose; "b": C = B
    # needs m == k and no transpose) — force the dims to coincide so the
    # overlap guard is exercised at a useful rate, not by coincidence
    alias = "none"
    r = rng.random()
    if r < 0.06 and m > 0 and k > 0:
        alias, transa, n = "a", False, k
    elif r < 0.12 and n > 0 and k > 0:
        alias, transb, m = "b", False, k

    # integer outputs cannot hold NaN — the poison check is float-only
    nan_c = bool(beta == 0 and alias == "none" and dtype != "int64"
                 and rng.random() < 0.4)
    case = FuzzCase(
        m=m, k=k, n=n, transa=transa, transb=transb,
        alpha=alpha, beta=beta, dtype=dtype,
        layout_a=layout_a, layout_b=layout_b, layout_c=layout_c,
        scheme=scheme, peel=peel,
        tau=int((4, 8, 16)[rng.integers(0, 3)]),
        workers=int(rng.integers(1, 9)),
        depth=int(rng.integers(1, 3)),
        alias=alias, nan_c=nan_c,
        pool=bool(rng.random() < 0.5),
        seed=int(rng.integers(0, 2**31)),
        accuracy=accuracy,
    )
    # the backend comes from the case's own seed, not from ``rng``: the
    # draw leaves every other field of every later case as it was
    backend = np.random.default_rng(case.seed).integers(0, len(BACKENDS))
    return replace(case, backend=BACKENDS[backend])


# ---------------------------------------------------------------------- #
def _random_matrix(
    rng: np.random.Generator, rows: int, cols: int, layout: str, dtype: str
) -> np.ndarray:
    """A rows-by-cols random matrix in the requested layout and dtype."""
    dt = np.dtype(dtype)

    def vals(r: int, c: int) -> np.ndarray:
        if dt.kind in "iu":
            # small integers: exact through any schedule, no overflow
            return rng.integers(-4, 5, (r, c)).astype(dt)
        x = rng.standard_normal((r, c))
        if dt.kind == "c":
            x = x + 1j * rng.standard_normal((r, c))
        return x.astype(dt)

    if layout == "F":
        return np.asfortranarray(vals(rows, cols))
    if layout == "C":
        return np.ascontiguousarray(vals(rows, cols))
    if layout == "strided":
        # every second row/column of a larger backing array
        return vals(2 * rows, 2 * cols)[::2, ::2]
    if layout == "revrows":
        return np.asfortranarray(vals(rows, cols))[::-1, :]
    if layout == "revcols":
        return np.ascontiguousarray(vals(rows, cols))[:, ::-1]
    raise ValueError(f"unknown layout {layout!r}")


def materialize(
    case: FuzzCase,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(a, b, c, c0)`` for one run of ``case``.

    ``c`` is the live output operand (it *is* ``a`` or ``b`` when the
    case aliases); ``c0`` is a private snapshot of C's initial content
    for the reference computation.  Deterministic in ``case.seed``, so
    every execution path can call this independently and receive
    identical operands.
    """
    rng = np.random.default_rng(case.seed)
    a = _random_matrix(
        rng,
        case.k if case.transa else case.m,
        case.m if case.transa else case.k,
        case.layout_a, case.dtype,
    )
    b = _random_matrix(
        rng,
        case.n if case.transb else case.k,
        case.k if case.transb else case.n,
        case.layout_b, case.dtype,
    )
    if case.alias == "a":
        c = a
    elif case.alias == "b":
        c = b
    else:
        c = _random_matrix(rng, case.m, case.n, case.layout_c, case.dtype)
        if case.nan_c:
            c[...] = np.nan
    return a, b, c, c.copy(order="K")


# ---------------------------------------------------------------------- #
def case_to_dict(case: FuzzCase) -> Dict[str, Any]:
    """JSON-safe dict encoding (complex scalars as [re, im] pairs)."""
    d: Dict[str, Any] = {}
    for f in fields(FuzzCase):
        v = getattr(case, f.name)
        if isinstance(v, complex):
            v = [v.real, v.imag]
        d[f.name] = v
    return d


def case_from_dict(d: Dict[str, Any]) -> FuzzCase:
    """Inverse of :func:`case_to_dict` (tolerates scalar floats too).

    Replay files written before the precision dimension carry no
    ``accuracy`` key; they decode to the dtype's natural discipline.
    Files written before the backend dimension carry no ``backend``
    key; they decode to ``"substrate"``, the kernel they ran on.
    """
    kw = dict(d)
    kw.setdefault(
        "accuracy", "exact" if kw.get("dtype") == "int64" else "fast"
    )
    for key in ("alpha", "beta"):
        v = kw[key]
        kw[key] = complex(v[0], v[1]) if isinstance(v, (list, tuple)) \
            else complex(v)
    for key in ("m", "k", "n", "tau", "workers", "depth", "seed"):
        kw[key] = int(kw[key])
    for key in ("transa", "transb", "nan_c", "pool"):
        kw[key] = bool(kw[key])
    return FuzzCase(**kw)
