"""Deterministic event-driven engine for the multi-rail memory.

A :class:`Memory` holds a pool of spin-wave components in shared vapor.
Rails only determine where a component is born and which calibration it
inherits; once stored, components are purely spatial objects that every
subsequent operation can touch. Operations are applied in time order and
the engine is fully deterministic: identical inputs give bit-identical
traces.

A Memory is confined to one logical thread; run distinct instances for
parallel simulations. Sequences and traces are immutable.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from . import physics, seqlang
from .core import (
    DomainError,
    DuplicateRailError,
    OpKind,
    Operation,
    PhysicsParams,
    RailCalibration,
    Sequence,
    SpinWaveComponent,
    TimeOrderError,
    Trace,
    TraceEvent,
    UnknownRailError,
)

# only the functions that compute with numpy import it, so the commands that
# never do (validate, run without a waveform, the scans, fit, report) start
# without it
if TYPE_CHECKING:
    import numpy as np

NS_PER_US = 1000.0
SIGNAL_FWHM_NS = 25.0  # full width at half maximum of a rendered signal pulse
MAX_WAVEFORM_SAMPLES = 10**7  # render_waveform allocates two float64 arrays this long


class Memory:
    """Multi-rail memory state: parameters, rail calibrations, stored pulses.

    All mutation goes through :meth:`apply` (or :meth:`pump`,
    :meth:`write` and :meth:`read`) and :meth:`advance`; time never moves
    backwards.

    Each rail holds at most one live component, stored as its amplitude
    and birth time only. Its centre and lifetime are its rail's, and its
    per-axis variance is computed from its age when a read or a snapshot
    needs it, sigma0² + 2 D age. A write, read or perfect pump on a rail
    depletes every component centered there by exactly dep(0) = 1, which
    leaves amplitude 0.0; such a component adds exactly nothing to any
    later read or :meth:`stored_on`, so it is dropped. The cost of a run
    is linear in its number of operations.
    """

    def __init__(self, params: PhysicsParams, rails: Iterable[RailCalibration]):
        rails = tuple(rails)
        if not rails:
            raise DomainError("a memory needs at least one rail")
        self.params = params
        # each rail's calibration and beam position; the position is computed
        # (and its band checked) here once, not on every operation
        self._rails: dict[float, tuple[RailCalibration, float]] = {}
        for cal in rails:
            if cal.f_rail in self._rails:
                raise DuplicateRailError(f"rail {cal.f_rail} MHz declared twice")
            self._rails[cal.f_rail] = (cal, physics.rail_position_um(cal.f_rail, params))
        # the live component of each rail, oldest write first: [amplitude, t_birth_ns]
        self._stored: dict[float, list[float]] = {}
        self.t_now_ns = 0.0
        # cell diffusion coefficient is fixed for the lifetime of the state
        self._diff = physics.diffusion_coefficient(params)

    @property
    def rails(self) -> tuple[RailCalibration, ...]:
        return tuple(cal for cal, _ in self._rails.values())

    @property
    def components(self) -> list[SpinWaveComponent]:
        """Snapshot of the live components at the current time, oldest first."""
        snapshot = []
        for f, (amplitude, t_birth_ns) in self._stored.items():
            cal, x_center = self._rails[f]
            age_us = (self.t_now_ns - t_birth_ns) / NS_PER_US
            snapshot.append(SpinWaveComponent(
                amplitude, x_center, self._variance(age_us), t_birth_ns, cal.tau_us))
        return snapshot

    def _variance(self, age_us: float) -> float:
        """Per-axis variance of a component of the given age (free diffusion)."""
        return physics.spread_variance_um2(self.params.sigma0 ** 2, age_us, self._diff)

    def _rail(self, f_rail: float) -> tuple[RailCalibration, float]:
        """Calibration and beam position of a declared rail."""
        try:
            return self._rails[f_rail]
        except KeyError:
            raise UnknownRailError(f"rail {f_rail} MHz was not declared") from None

    def advance(self, t_ns: float) -> None:
        """Advance time without performing an operation.

        A time that is not finite, or earlier than the current time, raises
        TimeOrderError and leaves the clock where it was.
        """
        if not math.isfinite(t_ns):
            raise TimeOrderError(f"time {t_ns} ns is not finite")
        if t_ns < self.t_now_ns:
            raise TimeOrderError(
                f"cannot move from {self.t_now_ns} ns back to {t_ns} ns")
        self.t_now_ns = t_ns

    def stored_on(self, f_rail: float) -> float:
        """Remaining amplitude of the component stored on a rail (0.0 if none)."""
        slot = self._stored.get(f_rail)
        if slot is None:
            self._rail(f_rail)  # an undeclared rail raises UnknownRailError
            return 0.0
        return slot[0]

    def apply(self, op: Operation) -> float:
        """Perform one operation.

        Returns the leakage of a write, the energy retrieved by a read and
        0.0 for a pump.
        """
        if op.kind is OpKind.WRITE:
            return self.write(op.f_rail, op.t_ns, op.energy)
        if op.kind is OpKind.READ:
            return self.read(op.f_rail, op.t_ns)
        self.pump(op.f_rail, op.t_ns)
        return 0.0

    def pump(self, f_rail: float, t_ns: float) -> None:
        """Optically pump the addressed region, removing residual excitation.

        Every component is scaled by (1 - pump_fidelity * dep(d)); with
        perfect pump fidelity the addressed region is emptied.
        """
        x_op = self._rail(f_rail)[1]
        self.advance(t_ns)
        self._deplete(x_op, self.params.pump_fidelity)

    def write(self, f_rail: float, t_ns: float, energy: float = 1.0) -> float:
        """Store a pulse on a rail; returns the leakage energy.

        The control field present during a write depletes pre-existing
        components exactly as a read would; whatever it retrieves from
        them is discarded, not added to the leakage.
        """
        cal, x_op = self._rail(f_rail)
        if not (math.isfinite(energy) and energy > 0.0):
            raise DomainError("write energy must be finite and strictly positive")
        self.advance(t_ns)
        self._deplete(x_op, 1.0)
        stored = energy * cal.eta_write
        leakage = energy - stored
        # the depletion above zeroed and dropped this rail's older component,
        # so the new one is inserted last and reads sum in write order
        self._stored[f_rail] = [stored, t_ns]
        return leakage

    def read(self, f_rail: float, t_ns: float) -> float:
        """Retrieve from a rail; returns the total retrieved energy.

        Every component contributes its amplitude scaled by the read
        efficiency, its storage decay exp(-age/tau), and the overlap of
        the displaced read with its spread Gaussian; afterwards each
        component loses the depletion fraction for its distance.
        """
        cal, x_op = self._rail(f_rail)
        self.advance(t_ns)
        eta_read = cal.eta_read
        retrieved = 0.0
        for f, (amplitude, t_birth_ns) in self._stored.items():
            stored_cal, x_center = self._rails[f]
            age_us = (t_ns - t_birth_ns) / NS_PER_US
            decay = physics.temporal_decay(1.0, age_us, stored_cal.tau_us)
            retrieved += (amplitude * eta_read * decay
                          * physics.overlap_factor(abs(x_op - x_center),
                                                   self._variance(age_us), self.params))
        self._deplete(x_op, 1.0)
        return retrieved

    def _deplete(self, x_op: float, fidelity: float) -> None:
        """Scale each component by (1 - fidelity * dep(d)) for a pulse at x_op.

        Beam positions are finite, so dep(d) and the scale lie in [0, 1].
        Components left at exactly 0.0 are then dropped.
        """
        for f, slot in self._stored.items():
            slot[0] *= 1.0 - fidelity * physics.depletion_fraction(
                abs(x_op - self._rails[f][1]), self.params)
        self._stored = {f: slot for f, slot in self._stored.items() if slot[0] != 0.0}


def run_sequence(state: Memory, seq: Sequence) -> Trace:
    """Apply a sequence to a memory, producing one trace event per operation.

    The sequence is validated against the memory's parameters first; any
    error-severity diagnostic aborts the run before the first operation.
    """
    diagnostics = seqlang.validate(seq, state.params)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise seqlang.ValidationFailure(errors)
    events = []
    for op in seq.ops:
        events.append(TraceEvent(
            t_ns=op.t_ns,
            kind=op.kind,
            f_rail=op.f_rail,
            out_energy=state.apply(op),
            stored_after=state.stored_on(op.f_rail),
        ))
    return Trace(tuple(events))


def render_waveform(trace: Trace, sample_period_ns: float, noise_floor: float = 0.0,
                    span_ns: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Render a trace as a sampled detector waveform.

    Each event becomes a Gaussian pulse of FWHM ``SIGNAL_FWHM_NS`` centered
    at its time, with area equal to its energy; a constant noise floor is
    added to every sample. Returns (times_ns, intensity) arrays covering
    [0, span_ns) at the given period. The default span runs 600 ns past
    the last event so pulse tails are captured. A sample period that is
    not finite and positive, a span that is not finite and non-negative,
    or a noise floor that is not finite and non-negative raises
    DomainError, as does a span of more than ``MAX_WAVEFORM_SAMPLES``
    sample periods, before any array is allocated.

    A pulse is added only on the samples within 40 sigma of its centre.
    Beyond that the Gaussian is exp(-800), exactly 0.0 in float64, and
    adding energy * 0.0 leaves a sample unchanged, so the window changes
    no bit of the result while the cost follows the number of pulses, not
    the span.
    """
    import numpy as np

    if not (math.isfinite(sample_period_ns) and sample_period_ns > 0.0):
        raise DomainError("sample period must be finite and strictly positive")
    if not (math.isfinite(noise_floor) and noise_floor >= 0.0):
        raise DomainError("noise floor must be finite and non-negative")
    if span_ns is None:
        last = trace.events[-1].t_ns if trace.events else 0.0
        span_ns = last + 600.0
    if not (math.isfinite(span_ns) and span_ns >= 0.0):
        raise DomainError("waveform span must be finite and non-negative")
    samples = span_ns / sample_period_ns  # inf when the quotient overflows
    if not samples <= MAX_WAVEFORM_SAMPLES:
        count = math.ceil(samples) if math.isfinite(samples) else samples
        raise DomainError(f"waveform has {count} samples, more than {MAX_WAVEFORM_SAMPLES}")
    n = int(np.ceil(samples))
    t = np.arange(n) * sample_period_ns
    # + 0.0 stores a -0.0 floor as 0.0, so samples outside every pulse window
    # read the same as samples where a pulse's zero tail was added
    y = np.full(n, float(noise_floor) + 0.0)
    sigma = SIGNAL_FWHM_NS / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    half = 40.0 * sigma
    for ev in trace.events:
        if ev.out_energy > 0.0:
            lo = np.searchsorted(t, ev.t_ns - half)
            hi = np.searchsorted(t, ev.t_ns + half, side="right")
            y[lo:hi] += ev.out_energy * norm * np.exp(
                -((t[lo:hi] - ev.t_ns) ** 2) / (2.0 * sigma * sigma))
    return t, y
