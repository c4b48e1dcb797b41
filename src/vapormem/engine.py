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
import struct
# the waveform is rendered into array('d') buffers with math.exp, so the
# engine needs no numpy and `run --waveform-out` starts without it
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable

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

NS_PER_US = 1000.0
SIGNAL_FWHM_NS = 25.0  # full width at half maximum of a rendered signal pulse
MAX_WAVEFORM_SAMPLES = 10**7  # render_waveform allocates two float64 arrays this long
_RENDER_CHUNK = 1 << 14  # samples of the time axis built per step of render_waveform


def _rail_table(rails: Iterable[RailCalibration]) -> dict[float, RailCalibration]:
    """Each rail's calibration by its MHz, or DuplicateRailError for a rail given twice."""
    cals: dict[float, RailCalibration] = {}
    for cal in rails:
        if cal.f_rail in cals:
            raise DuplicateRailError(f"rail {cal.f_rail} MHz declared twice")
        cals[cal.f_rail] = cal
    return cals


def _calibration(cals: dict[float, RailCalibration], f_rail: float) -> RailCalibration:
    """cals[f_rail], or the UnknownRailError every entry point prints for a rail with none."""
    try:
        return cals[f_rail]
    except KeyError:
        listing = ", ".join(map(seqlang._fmt_number, sorted(cals)))
        raise UnknownRailError(f"rail {seqlang._fmt_number(f_rail)} MHz has no calibration "
                               f"(calibrated rails: {listing} MHz)") from None


class Memory:
    """Multi-rail memory state: parameters, rail calibrations, stored pulses.

    All mutation goes through :meth:`apply` (or :meth:`pump`,
    :meth:`write` and :meth:`read`) and :meth:`advance`; time never moves
    backwards, and an operation that raises leaves the memory as it was.

    Each rail holds at most one live component: its amplitude, birth time,
    amplitude at birth and what off-rail reads drew from it. Its centre and
    lifetime are its rail's, and its per-axis variance is computed from its
    age when a read needs it, sigma0² + 2 D age. Every operation is a
    control pulse on its rail that scales each component by 1 - f dep(d),
    with f = 1 for a write or a read and pump_fidelity for a pump; d and
    dep(d) depend on the rail pair alone and are fixed when the memory is
    built. Only a read retrieves, and only a read charges off-rail
    budgets. A pulse with f = 1 leaves its rail's component at exactly
    0.0, adding nothing to any later read or :meth:`stored_on`, so it is
    dropped. The cost of a run is linear in its number of operations.
    """

    def __init__(self, params: PhysicsParams, rails: Iterable[RailCalibration]):
        self._rails = _rail_table(rails)
        if not self._rails:
            raise DomainError("a memory needs at least one rail")
        self.params = params
        # beam positions, checked here and then dropped
        x = {f: physics.rail_position_um(f, params) for f in self._rails}
        # a read squares the distance between two rails; were that inf, a
        # component spread past a float would give inf/inf in its overlap
        by_x = sorted((v, f) for f, v in x.items())
        (lo, f_lo), (hi, f_hi) = by_x[0], by_x[-1]
        if not (hi - lo) * (hi - lo) < math.inf:
            raise DomainError(f"squared distance between rails {f_lo} and {f_hi} MHz "
                              f"must be a finite float")
        # _pairs[f_op][f] = (d, dep(d)) for a pulse on f_op and a component on f
        self._pairs: dict[float, dict[float, tuple[float, float]]] = {}
        for f_op, x_op in x.items():
            ds = {f: abs(x_op - x_f) for f, x_f in x.items()}
            self._pairs[f_op] = {f: (d, physics.depletion_fraction(d, params))
                                 for f, d in ds.items()}
        # the live component of each rail, oldest write first:
        # [amplitude, t_birth_ns, drawn by off-rail reads, amplitude at birth]
        self._stored: dict[float, list[float]] = {}
        self.t_now_ns = 0.0
        # the cell diffusion coefficient, the initial variance sigma0² and the
        # read sampling variance are fixed for the lifetime of the state
        self._diff = physics.diffusion_coefficient(params)
        self._s2_birth = params.sigma0 ** 2
        self._v_read = physics.read_sampling_variance_um2(params)

    @property
    def components(self) -> list[SpinWaveComponent]:
        """Snapshot of the live components, oldest first."""
        return [SpinWaveComponent(slot[0], slot[1]) for slot in self._stored.values()]

    def _rail(self, f_rail: float) -> RailCalibration:
        """Calibration of a rail; the memory acts only on rails it was given one for."""
        return _calibration(self._rails, f_rail)

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
            self._rail(f_rail)  # an uncalibrated rail raises UnknownRailError
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
        self._rail(f_rail)
        self.advance(t_ns)
        self._pulse(f_rail, self.params.pump_fidelity)

    def write(self, f_rail: float, t_ns: float, energy: float = 1.0) -> float:
        """Store a pulse on a rail; returns the leakage energy.

        Its control pulse scales every component by (1 - dep(d)) as a
        read's does, but retrieves nothing and charges no budget.
        """
        cal = self._rail(f_rail)
        if not (math.isfinite(energy) and energy > 0.0):
            raise DomainError("write energy must be finite and strictly positive")
        self.advance(t_ns)
        self._pulse(f_rail, 1.0)
        stored = energy * cal.eta_write
        # the pulse above zeroed and dropped this rail's older component,
        # so the new one is inserted last and reads sum in write order
        self._stored[f_rail] = [stored, t_ns, 0.0, stored]
        return energy - stored

    def read(self, f_rail: float, t_ns: float) -> float:
        """Retrieve from a rail; returns the total retrieved energy.

        Every component contributes its amplitude times the read
        efficiency, its storage decay exp(-age/tau) and the overlap of the
        displaced read with its spread Gaussian; one on another rail gives
        at most what has left its home mode and no earlier read took
        (Gorshkov et al., PRA 76, 033804 (2007)).
        """
        eta_read = self._rail(f_rail).eta_read
        self.advance(t_ns)
        return self._pulse(f_rail, 1.0, eta_read)

    def _pulse(self, f_rail: float, fidelity: float, eta_read: float | None = None) -> float:
        """Scale each component by (1 - fidelity * dep(d)), dropping any left at 0.0.

        Only a read passes eta_read; it returns what it retrieves, 0.0 otherwise.
        """
        pairs = self._pairs[f_rail]
        retrieved = 0.0
        for f, slot in self._stored.items():
            amplitude, t_birth_ns, drawn, a_birth = slot
            d, dep = pairs[f]
            slot[0] = amplitude * (1.0 - fidelity * dep)
            if eta_read is None:
                continue
            age_us = (self.t_now_ns - t_birth_ns) / NS_PER_US
            decay = physics.temporal_decay(1.0, age_us, self._rails[f].tau_us)
            # the variance sigma0² + 2 D age is at least sigma0² > 0; past a
            # float it is inf, where the overlap is 1.0
            out = (amplitude * eta_read * decay
                   * physics._overlap(d, physics._spread(self._s2_birth, age_us, self._diff),
                                      self._v_read))
            if f != f_rail:
                out = min(out, max(a_birth - slot[0] * decay - drawn, 0.0))
                slot[2] = drawn + out
            retrieved += out
        self._stored = {f: slot for f, slot in self._stored.items() if slot[0] != 0.0}
        return retrieved


def diagnose(state: Memory, seq: Sequence) -> list[seqlang.Diagnostic]:
    """Every diagnostic of a sequence on a memory, sorted by line then code.

    These are ``seqlang.validate``'s, against the memory's parameters, and
    E003, on the RAILS line, for each declared rail the memory has no
    calibration for, since it could not act on that rail.

    A sequence built in Python reports line 0, as ``validate`` does.
    """
    # through the module, so a wrapper of seqlang.validate sees this call
    diags = seqlang.validate(seq, state.params)
    rails_line = seq.rails_line if seq.rails_line is not None else 0
    for f in seq.rails:
        try:
            state._rail(f)
        except UnknownRailError as exc:
            diags.append(seqlang.Diagnostic("E003", "error", rails_line, str(exc)))
    diags.sort(key=lambda d: (d.line, d.code))
    return diags


def run_sequence(state: Memory, seq: Sequence) -> Trace:
    """Apply a sequence to a memory, producing one trace event per operation.

    The sequence is checked by :func:`diagnose` first: besides
    ``seqlang.validate``'s rules, every declared rail must have a
    calibration in the memory (E003). Any error-severity diagnostic raises
    ValidationFailure before the first operation, leaving the memory
    untouched.
    """
    errors = [d for d in diagnose(state, seq) if d.severity == "error"]
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
                    span_ns: float | None = None) -> tuple[array, array]:
    """Render a trace as a sampled detector waveform.

    Each event becomes a Gaussian pulse of FWHM ``SIGNAL_FWHM_NS`` centered
    at its time, with area equal to its energy; a constant noise floor is
    added to every sample. Returns (times_ns, intensity) as two
    ``array('d')`` buffers covering [0, span_ns) at the given period;
    ``np.asarray`` views either without a copy. The default span runs
    600 ns past the last event so pulse tails are captured. A sample period
    that is not finite and positive, a span that is not finite and
    non-negative, or a noise floor that is not finite and non-negative
    raises DomainError, as does a span of more than ``MAX_WAVEFORM_SAMPLES``
    sample periods, before any buffer is allocated.

    A pulse is added only on the samples within 40 sigma of its centre.
    Beyond that the Gaussian is exp(-800), exactly 0.0 in float64, and
    adding energy * 0.0 leaves a sample unchanged, so the window changes
    no bit of the result while the cost follows the number of pulses, not
    the span. Every exponential is ``math.exp``, the C library's, so the
    bytes do not depend on which CPU kernels numpy would dispatch to.
    """
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
    n = math.ceil(samples)
    # t[i] = i * period, one chunk at a time so no list of the whole span is
    # alive. For i < 2**53, float(k) + float(j) is exactly float(k + j), which
    # spares an int per sample; struct packs a chunk faster than fromlist
    t = array("d")
    offsets = [float(j) for j in range(min(n, _RENDER_CHUNK))]
    for k in range(0, n, _RENDER_CHUNK):
        fk = float(k)
        chunk = [(fk + j) * sample_period_ns for j in offsets[:n - k]]
        t.frombytes(struct.pack(f"{len(chunk)}d", *chunk))
    # + 0.0 stores a -0.0 floor as 0.0, so samples outside every pulse window
    # read the same as samples where a pulse's zero tail was added
    y = array("d", [float(noise_floor) + 0.0]) * n
    sigma = SIGNAL_FWHM_NS / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    half = 40.0 * sigma
    last_ds = shape = None
    for ev in trace.events:
        if ev.out_energy > 0.0:
            t0 = ev.t_ns
            lo = bisect_left(t, t0 - half)
            hi = bisect_right(t, t0 + half)
            ds = [ti - t0 for ti in t[lo:hi]]
            # equal distances give an equal unit Gaussian, so a pulse at the same
            # offset from the sample grid as the one before (integer-ns times on
            # a 1 ns grid) reuses it
            if ds != last_ds:
                last_ds, shape = ds, [math.exp(-(d * d) / (2.0 * sigma * sigma)) for d in ds]
            scale = ev.out_energy * norm
            y[lo:hi] = array("d", [v + scale * g for v, g in zip(y[lo:hi], shape)])
    return t, y
