"""Gating policies: when an idle wire plane may drop its power state.

A policy is a declarative, hashable rule that maps one plane's recent
activity to the *absolute cycles* at which it may enter the DROWSY and
GATED states.  The :class:`~repro.power.manager.PlanePowerManager`
evaluates policies lazily -- state is settled analytically from the
submit stream, never ticked -- so a policy must answer "given the last
use and the traffic estimate, when would this plane step down?" as a
pure function.  That purity is what keeps the scalar and event engines
bit-exact under gating: both settle the same closed-form machine.

Three policies reproduce the design space of the leakage-aware
interconnect literature (PAPERS.md):

* :class:`NeverGate` -- the always-on baseline.  Planes stay ACTIVE
  forever; the network does not even build a power manager for it, so
  never-gate runs are bit-identical to pre-gating builds.
* :class:`IdleThreshold` -- a countdown: a plane unused for ``drowsy``
  cycles drops to DROWSY, and for ``gate`` cycles to GATED.
* :class:`TrafficEwma` -- hysteresis on an exponentially-weighted
  moving average of per-plane injections.  The EWMA decays with a
  configurable half-life; the plane steps down when the estimate falls
  below ``thr`` (drowsy) and ``gthr`` (gated), and a ``hold`` window
  after each wake-up prevents oscillation.  The estimate is a pure
  function of (touch cycles) -- no RNG is consulted anywhere, which the
  SIM501 seed-provenance fixtures pin.

Policies round-trip through a compact canonical string
(``"idle:drowsy=64,gate=256"``) so they can ride in CLI flags,
:class:`~repro.harness.runner.ExperimentPlan` cache keys and the
explorer's design-point encodings, exactly like
:class:`~repro.faults.FaultSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class GatingSpecError(ValueError):
    """A gating-policy string or field is malformed."""


#: Default wake-up latencies (cycles) out of each low-power state.
#: Drowsy wake restores full bitline voltage; gated wake re-ramps the
#: plane's drivers and repeaters, which takes markedly longer.
DEFAULT_DROWSY_WAKE = 2
DEFAULT_GATED_WAKE = 8


@dataclass(frozen=True)
class GatingPolicy:
    """Base policy: shared wake-up penalties, never steps down.

    ``wake``/``gwake`` are the cycles a plane spends WAKING after a
    demand touches it in the DROWSY/GATED state.  Subclasses override
    :meth:`transitions_after` to schedule the step-downs.
    """

    #: Stable clause name; the first token of the canonical string.
    KIND = "never"

    wake: int = DEFAULT_DROWSY_WAKE
    gwake: int = DEFAULT_GATED_WAKE

    def __post_init__(self) -> None:
        if self.wake < 1:
            raise GatingSpecError(
                f"drowsy wake latency must be >= 1 cycle, got {self.wake}"
            )
        if self.gwake < self.wake:
            raise GatingSpecError(
                f"gated wake latency ({self.gwake}) must be >= drowsy "
                f"wake latency ({self.wake})"
            )

    @property
    def is_never(self) -> bool:
        """True when the policy can never leave ACTIVE."""
        return True

    #: Post-wake hold-down: no step-down before wake_ready + hold.
    @property
    def hold_cycles(self) -> int:
        return 0

    def wake_latency(self, from_gated: bool) -> int:
        """Cycles a reactivation stalls for, out of either state."""
        return self.gwake if from_gated else self.wake

    def touch(self, ewma: float, idle: int) -> float:
        """New traffic estimate after one injection ``idle`` cycles
        after the previous one (stateless policies keep it at 0)."""
        return 0.0

    def decayed(self, ewma: float, idle: int) -> float:
        """The traffic estimate after ``idle`` cycles with no touch."""
        return 0.0

    def transitions_after(self, last_use: int, ewma: float
                          ) -> Tuple[Optional[int], Optional[int]]:
        """Absolute (drowsy-entry, gate-entry) cycles after a touch.

        ``None`` means "never".  When both are returned, the gate entry
        is always at or after the drowsy entry.  Both are strictly
        after ``last_use`` -- the touch cycle itself is ACTIVE.
        """
        return (None, None)

    def canonical(self) -> str:
        """Normalized string; equal policies render identically."""
        return "never"

    @classmethod
    def parse(cls, text: str) -> "GatingPolicy":
        """Parse ``kind:key=value,...``; raises :class:`GatingSpecError`.

        Accepted forms::

            never                         always-on baseline ("" works too)
            idle:drowsy=64,gate=256       idle-countdown thresholds (cycles)
            ewma:halflife=64,thr=0.5      traffic-EWMA hysteresis
            ewma:halflife=64,thr=0.5,gthr=0.125,hold=32

        Every policy also accepts ``wake=``/``gwake=`` wake latencies.
        """
        text = text.strip()
        kind, sep, body = text.partition(":")
        kind = kind.strip().lower()
        if not kind or kind == "never":
            if sep or body:
                raise GatingSpecError(
                    "the never-gate policy takes no parameters"
                )
            return NEVER_GATE
        fields = _parse_fields(body if sep else "", text)
        if kind == "idle":
            return IdleThreshold(**_pick(fields, text, {
                "drowsy": int, "gate": int, "wake": int, "gwake": int,
            }))
        if kind == "ewma":
            return TrafficEwma(**_pick(fields, text, {
                "halflife": int, "thr": float, "gthr": float,
                "hold": int, "wake": int, "gwake": int,
            }))
        raise GatingSpecError(
            f"unknown gating policy {kind!r}; expected one of "
            "never, idle, ewma"
        )


@dataclass(frozen=True)
class NeverGate(GatingPolicy):
    """The always-on baseline: planes never leave ACTIVE."""

    KIND = "never"


@dataclass(frozen=True)
class IdleThreshold(GatingPolicy):
    """Countdown policy: step down after fixed idle thresholds."""

    KIND = "idle"

    drowsy: int = 64
    gate: int = 256

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.drowsy < 1:
            raise GatingSpecError(
                f"idle drowsy threshold must be >= 1 cycle, "
                f"got {self.drowsy}"
            )
        if self.gate <= self.drowsy:
            raise GatingSpecError(
                f"idle gate threshold ({self.gate}) must exceed the "
                f"drowsy threshold ({self.drowsy})"
            )

    @property
    def is_never(self) -> bool:
        return False

    def transitions_after(self, last_use: int, ewma: float
                          ) -> Tuple[Optional[int], Optional[int]]:
        return (last_use + self.drowsy, last_use + self.gate)

    def canonical(self) -> str:
        parts = [f"drowsy={self.drowsy}", f"gate={self.gate}"]
        if self.wake != DEFAULT_DROWSY_WAKE:
            parts.append(f"wake={self.wake}")
        if self.gwake != DEFAULT_GATED_WAKE:
            parts.append(f"gwake={self.gwake}")
        return "idle:" + ",".join(parts)


@dataclass(frozen=True)
class TrafficEwma(GatingPolicy):
    """Hysteresis on an exponentially-decaying traffic estimate.

    Each injection adds 1 to the plane's estimate; between injections
    the estimate halves every ``halflife`` cycles.  The plane steps to
    DROWSY when the estimate falls below ``thr`` and to GATED below
    ``gthr``; after a wake-up, ``hold`` cycles must pass before any
    step-down (the hysteresis that keeps bursty planes from
    oscillating).  Entry cycles are solved in closed form -- the
    estimate is RNG-free and purely a function of the touch stream.
    """

    KIND = "ewma"

    halflife: int = 64
    thr: float = 0.5
    gthr: float = 0.125
    hold: int = 32

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.halflife < 1:
            raise GatingSpecError(
                f"EWMA half-life must be >= 1 cycle, got {self.halflife}"
            )
        if not self.thr > 0.0:
            raise GatingSpecError(
                f"EWMA drowsy threshold must be positive, got {self.thr!r}"
            )
        if not 0.0 < self.gthr <= self.thr:
            raise GatingSpecError(
                f"EWMA gate threshold ({self.gthr!r}) must be in "
                f"(0, thr={self.thr!r}]"
            )
        if self.hold < 0:
            raise GatingSpecError(
                f"EWMA hold-down must be non-negative, got {self.hold}"
            )

    @property
    def is_never(self) -> bool:
        return False

    @property
    def hold_cycles(self) -> int:
        return self.hold

    @property
    def _decay(self) -> float:
        return 0.5 ** (1.0 / self.halflife)

    def touch(self, ewma: float, idle: int) -> float:
        return self.decayed(ewma, idle) + 1.0

    def decayed(self, ewma: float, idle: int) -> float:
        if idle <= 0 or ewma == 0.0:
            return ewma
        return ewma * self._decay ** idle

    def _entry_delay(self, ewma: float, threshold: float) -> int:
        """Smallest dt >= 1 with ``ewma * decay**dt < threshold``."""
        if ewma < threshold:
            return 1
        decay = self._decay
        # Closed-form guess, then fix up against the exact float power
        # so the settle walk and this solver can never disagree.
        dt = max(1, int(math.log(threshold / ewma) / math.log(decay)))
        while ewma * decay ** dt >= threshold:
            dt += 1
        while dt > 1 and ewma * decay ** (dt - 1) < threshold:
            dt -= 1
        return dt

    def transitions_after(self, last_use: int, ewma: float
                          ) -> Tuple[Optional[int], Optional[int]]:
        drowsy_at = last_use + self._entry_delay(ewma, self.thr)
        gate_at = last_use + self._entry_delay(ewma, self.gthr)
        if gate_at < drowsy_at:
            gate_at = drowsy_at
        return (drowsy_at, gate_at)

    def canonical(self) -> str:
        parts = [f"halflife={self.halflife}", f"thr={self.thr:g}"]
        if self.gthr != type(self).gthr:
            parts.append(f"gthr={self.gthr:g}")
        if self.hold != type(self).hold:
            parts.append(f"hold={self.hold}")
        if self.wake != DEFAULT_DROWSY_WAKE:
            parts.append(f"wake={self.wake}")
        if self.gwake != DEFAULT_GATED_WAKE:
            parts.append(f"gwake={self.gwake}")
        return "ewma:" + ",".join(parts)


#: The always-on policy, for callers that want an explicit default.
NEVER_GATE = NeverGate()


def _parse_fields(body: str, context: str) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    for raw in body.split(","):
        item = raw.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not sep or not key or not value:
            raise GatingSpecError(
                f"malformed gating field {item!r} in {context!r}; "
                "expected key=value (e.g. drowsy=64)"
            )
        if key in fields:
            raise GatingSpecError(
                f"duplicate gating field {key!r} in {context!r}"
            )
        fields[key] = value
    return fields


def _pick(fields: Dict[str, str], context: str,
          allowed: Dict[str, type]) -> Dict[str, object]:
    unknown = sorted(set(fields) - set(allowed))
    if unknown:
        raise GatingSpecError(
            f"unknown gating field {unknown[0]!r} in {context!r}; "
            f"expected one of {', '.join(sorted(allowed))}"
        )
    picked: Dict[str, object] = {}
    for key, value in fields.items():
        caster = allowed[key]
        try:
            picked[key] = caster(value)
        except ValueError:
            raise GatingSpecError(
                f"gating field {key!r} must be "
                f"{'an integer' if caster is int else 'a number'}, "
                f"got {value!r}"
            ) from None
    return picked


def parse_gating(text: Optional[str]) -> Optional[GatingPolicy]:
    """A policy for a spec string, or ``None`` for the never-gate ones.

    The convenience entry point the simulation drivers use: ``None``,
    ``""`` and ``"never"`` all mean "no power manager at all", which
    keeps ungated runs on the exact pre-gating code path.
    """
    if text is None:
        return None
    policy = text if isinstance(text, GatingPolicy) \
        else GatingPolicy.parse(text)
    return None if policy.is_never else policy
