"""TunedProfile: versioned, host-stamped GemmConfig bundles.

The paper calibrated cutoffs per machine by hand (Tables 2-3); the tune
subsystem discovers them on the running host and has to hand the result
to a *serving* process that was launched before the measurement ran.
The unit of exchange is a :class:`TunedProfile`: one winning
:class:`~repro.core.config.GemmConfig` bound to a **signature class**
(a shape/dtype/scalar bucket, :func:`class_key`), stamped with the
fingerprint of the host it was measured on, and carrying a
monotonically increasing ``version`` so stores can reject stale
writes.

Profiles are plain JSON on disk (:meth:`TunedProfile.to_json` /
:meth:`TunedProfile.from_json` round-trip bit-exactly — pinned by
``tests/test_tune.py``).  The codec walks ``fields(GemmConfig)``, so
every knob a profile can carry is a knob the plan-cache signature
already keys on, and a new knob needs no edit here: a hot-swapped
profile can never alias a differently-configured plan.

Cutoff criteria are frozen dataclasses; :func:`cutoff_to_json` /
:func:`cutoff_from_json` encode them by registry (class name + field
dict) so any criterion in :mod:`repro.core.cutoff` survives the trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.core import cutoff as _cutoff_mod
from repro.core.config import GemmConfig
from repro.core.cutoff import CutoffCriterion
from repro.errors import ArgumentError

__all__ = [
    "PROFILE_SCHEMA",
    "CUTOFF_KINDS",
    "cutoff_to_json",
    "cutoff_from_json",
    "class_key",
    "TunedProfile",
]

#: on-disk schema version of a profile document
PROFILE_SCHEMA = 1

#: every concrete criterion class, keyed by name — the codec registry
CUTOFF_KINDS: Dict[str, type] = {
    name: getattr(_cutoff_mod, name)
    for name in _cutoff_mod.__all__
    if name != "CutoffCriterion"
}


def cutoff_to_json(crit: CutoffCriterion) -> Dict[str, Any]:
    """Encode a frozen criterion as ``{"kind", "params"}``."""
    kind = type(crit).__name__
    if kind not in CUTOFF_KINDS:
        raise ArgumentError(
            "cutoff_to_json", "crit",
            f"unknown criterion class {kind!r} (not in repro.core.cutoff)",
        )
    return {
        "kind": kind,
        "params": {f.name: getattr(crit, f.name) for f in fields(crit)},
    }


def cutoff_from_json(doc: Dict[str, Any]) -> CutoffCriterion:
    """Decode :func:`cutoff_to_json`'s document back to the criterion."""
    kind = doc.get("kind")
    cls = CUTOFF_KINDS.get(kind)
    if cls is None:
        raise ArgumentError(
            "cutoff_from_json", "kind",
            f"unknown criterion kind {kind!r}",
        )
    return cls(**doc.get("params", {}))


def class_key(
    m: int, k: int, n: int,
    dtype: str = "float64",
    beta_zero: bool = True,
) -> str:
    """The signature-class bucket a problem tunes and resolves under.

    Profiles must generalize past the exact ``(m, k, n)`` they were
    measured on — production traffic repeats *shapes of a kind*, not
    single triples — so problems bucket by:

    - **shape class**: ``sq`` when the aspect ratio ``max/min`` is at
      most 2 (the paper's square-crossover regime), ``rect`` otherwise
      (the long-thin regime of Table 3, where different cutoffs win);
    - **size bucket**: the largest power of two not exceeding the
      geometric mean of the dimensions — crossovers move with problem
      scale, not with every individual size;
    - **dtype** and **beta class**: both change the executed schedule
      (``auto`` dispatches STRASSEN1 vs STRASSEN2 on ``beta``), so they
      change what is worth tuning.

    Degenerate problems (any dimension < 1) return the ``"degenerate"``
    bucket; stores never resolve profiles for it.
    """
    if m < 1 or k < 1 or n < 1:
        return f"degenerate:{dtype}"
    g = float(m * k * n) ** (1.0 / 3.0)
    bucket = 1
    while bucket * 2 <= g:
        bucket *= 2
    aspect = max(m, k, n) / min(m, k, n)
    shape = "sq" if aspect <= 2.0 else "rect"
    b = "b0" if beta_zero else "bg"
    return f"{shape}{bucket}:{dtype}:{b}"


@dataclass(frozen=True)
class TunedProfile:
    """One signature class's winning config, host-stamped and versioned.

    ``key``
        The :func:`class_key` bucket this profile serves.
    ``config``
        The winning :class:`~repro.core.config.GemmConfig` — validated
        once, at its own construction.  Its ``dtype`` is the default:
        a profile's dtype lives in its ``key``, and admission folds the
        observed operand dtype into whatever config it serves.
    ``version``
        Monotonic per key; :class:`~repro.tune.store.ProfileStore`
        refuses to replace a profile with an older or equal version.
    ``created``
        ISO-8601 timestamp of the measurement.
    ``host``
        :func:`~repro.tune.store.host_fingerprint` of the measuring
        host; stores compare the ``digest`` entry and treat a mismatch
        as stale (crossovers are a per-machine property).
    ``measured``
        Free-form measurement evidence (``tuned_s``, ``default_s``,
        ``speedup``, the probe dimensions, budget spent).
    """

    key: str
    config: GemmConfig = GemmConfig()
    version: int = 1
    created: str = ""
    host: Dict[str, Any] = field(default_factory=dict)
    measured: Dict[str, Any] = field(default_factory=dict)
    note: str = ""

    def __post_init__(self) -> None:
        if not self.key or not isinstance(self.key, str):
            raise ArgumentError(
                "TunedProfile", "key", f"must be a nonempty str, "
                f"got {self.key!r}",
            )
        if self.config.dtype != GemmConfig.dtype:
            raise ArgumentError(
                "TunedProfile", "config",
                f"dtype lives in the class key: config.dtype must be "
                f"{GemmConfig.dtype!r}, got {self.config.dtype!r}",
            )
        if self.version < 1:
            raise ArgumentError(
                "TunedProfile", "version",
                f"must be >= 1, got {self.version}",
            )

    # ------------------------------------------------------------------ #
    def to_json(self) -> Dict[str, Any]:
        """Plain-JSON document (round-trips via :meth:`from_json`).

        Every :class:`GemmConfig` field but ``dtype`` is a top-level
        key, in declaration order; a cutoff criterion encodes through
        :func:`cutoff_to_json`.
        """
        knobs = {
            name: (cutoff_to_json(value)
                   if isinstance(value, CutoffCriterion) else value)
            for name, value in _knobs(self.config)
        }
        return {
            "schema": PROFILE_SCHEMA,
            "key": self.key,
            **knobs,
            "version": self.version,
            "created": self.created,
            "host": dict(self.host),
            "measured": dict(self.measured),
            "note": self.note,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "TunedProfile":
        """Rebuild (and re-validate) a profile from its JSON document.

        A knob missing from the document takes its ``GemmConfig``
        default — documents written before a knob existed (e.g. no
        ``accuracy`` key) decode to the behaviour they were measured
        under.
        """
        schema = doc.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ArgumentError(
                "TunedProfile.from_json", "schema",
                f"expected {PROFILE_SCHEMA}, got {schema!r}",
            )
        knobs = {
            name: (cutoff_from_json(doc[name])
                   if isinstance(default, CutoffCriterion) else doc[name])
            for name, default in _knobs(GemmConfig())
            if name in doc
        }
        return cls(
            key=doc["key"],
            config=GemmConfig(**knobs),
            version=int(doc.get("version", 1)),
            created=doc.get("created", ""),
            host=dict(doc.get("host", {})),
            measured=dict(doc.get("measured", {})),
            note=doc.get("note", ""),
        )

    def host_digest(self) -> Optional[str]:
        """The measuring host's fingerprint digest (None if unstamped)."""
        return self.host.get("digest")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TunedProfile({self.key!r} v{self.version}: {self.config!r})"


def _knobs(config: GemmConfig) -> List[Tuple[str, Any]]:
    """``(name, value)`` of every config field a profile document
    carries: all of them but ``dtype``, in declaration order."""
    return [(f.name, getattr(config, f.name))
            for f in fields(GemmConfig) if f.name != "dtype"]
