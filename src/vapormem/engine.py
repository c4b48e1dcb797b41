"""Deterministic event-driven engine for the multi-rail memory.

A :class:`Memory` holds a pool of spin-wave components in shared vapor.
Rails only determine where a component is born and which calibration it
inherits; once stored, components are purely spatial objects that every
subsequent operation can touch. Operations are applied in time order and
the engine is fully deterministic: identical inputs give bit-identical
traces.

A Memory is confined to one logical thread; run distinct instances for
parallel simulations. Sequences and traces are immutable.

:func:`run_sequence` goes from columns to columns: it feeds the time,
kind, rail and energy columns of a Sequence to the memory's one op entry
and fills a Trace's ``array('d')`` columns, building no Operation and no
TraceEvent. :func:`render_waveform` reads the trace's time and energy
columns.
"""

from __future__ import annotations

import functools
import math
import struct
# the waveform is rendered into array('d') buffers with math.exp, so the
# engine needs no numpy and `run --waveform-out` starts without it
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from itertools import accumulate, repeat

from . import physics, seqlang
from .core import (
    _POSITIVE,
    DomainError,
    OpKind,
    Operation,
    PhysicsParams,
    RailCalibration,
    Sequence,
    SpinWaveComponent,
    TimeOrderError,
    Trace,
    _calibration,
    _fmt_number,
    _rail_table,
    _real,
)

NS_PER_US = 1000.0
SIGNAL_FWHM_NS = 25.0  # full width at half maximum of a rendered signal pulse
MAX_WAVEFORM_SAMPLES = 10**7  # render_waveform allocates two float64 arrays this long
_RENDER_CHUNK = 1 << 14  # samples of the time axis packed per step of _time_axis


class Memory:
    """Multi-rail memory state: parameters, rail calibrations, stored pulses.

    Every change goes through one private entry, ``_op``, which takes an
    op's four fields: :meth:`apply` passes an :class:`Operation`'s, which
    :meth:`write`, :meth:`read` and :meth:`pump` build, and
    :func:`run_sequence` a Sequence's columns. The Operation, or the parser
    for a parsed Sequence, owns an op's time and energy; the memory owns
    only its rails and its clock. Each op moves the clock to its time,
    which never moves backwards, and an op that raises leaves the memory
    as it was.

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
            raise DomainError(f"squared distance between rails {_fmt_number(f_lo)} and "
                              f"{_fmt_number(f_hi)} MHz must be a finite float")
        # _pairs[f_op][f] = (d, dep(d), tau of f in us) for a pulse on f_op
        # and a component on f
        self._pairs: dict[float, dict[float, tuple[float, float, float]]] = {}
        for f_op, x_op in x.items():
            ds = {f: abs(x_op - x_f) for f, x_f in x.items()}
            self._pairs[f_op] = {f: (d, physics.depletion_fraction(d, params),
                                     self._rails[f].tau_us) for f, d in ds.items()}
        # each rail's (eta_write, eta_read), keyed as _rails is
        self._etas = {f: (cal.eta_write, cal.eta_read) for f, cal in self._rails.items()}
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

    def stored_on(self, f_rail: float) -> float:
        """Remaining amplitude of the component stored on a rail (0.0 if none)."""
        self._rail(f_rail)  # an uncalibrated rail raises UnknownRailError
        slot = self._stored.get(f_rail)
        return 0.0 if slot is None else slot[0]

    def apply(self, op: Operation) -> float:
        """Perform one operation. Returns the leakage of a write, the energy
        retrieved by a read and 0.0 for a pump."""
        return self._op(op.t_ns, op.kind, op.f_rail, op.energy)[0]

    def pump(self, f_rail: float, t_ns: float) -> None:
        """Optically pump the addressed region, removing residual excitation.

        Every component is scaled by (1 - pump_fidelity * dep(d)); with
        perfect pump fidelity the addressed region is emptied.
        """
        self.apply(Operation(t_ns, OpKind.PUMP, f_rail))

    def write(self, f_rail: float, t_ns: float, energy: float = 1.0) -> float:
        """Store a pulse on a rail; returns the leakage energy.

        Its control pulse scales every component by (1 - dep(d)) as a
        read's does, but retrieves nothing and charges no budget.
        """
        return self.apply(Operation(t_ns, OpKind.WRITE, f_rail, energy))

    def read(self, f_rail: float, t_ns: float) -> float:
        """Retrieve from a rail; returns the total retrieved energy.

        Every component contributes its amplitude times the read
        efficiency, its storage decay exp(-age/tau) and the overlap of the
        displaced read with its spread Gaussian; one on another rail gives
        at most what has left its home mode and no earlier read took
        (Gorshkov et al., PRA 76, 033804 (2007)).
        """
        return self.apply(Operation(t_ns, OpKind.READ, f_rail))

    def _op(self, t_ns: float, kind: OpKind, f_rail: float, energy: float) -> tuple[float, float]:
        """The one place an op acts on the memory, given its fields as an Operation holds them.

        The time and energy are floats that an Operation or ``seqlang.Reader``
        has checked. The rail must have a calibration (UnknownRailError) and
        the time must not be before the clock (TimeOrderError), the one clock
        check; either raises before anything changes. The op's control
        pulse moves the clock to t_ns and scales each component by
        (1 - fidelity * dep(d)). A component left at 0.0 is dropped, and the
        dict of components is rebuilt only then. Only a read retrieves; a
        write then stores its pulse. Returns what :meth:`apply` returns and
        then what :meth:`stored_on` would for the op's rail.
        """
        eta_write, eta_read = _calibration(self._etas, f_rail)
        if t_ns < self.t_now_ns:
            raise TimeOrderError(f"cannot move from {self.t_now_ns} ns back to {t_ns} ns")
        self.t_now_ns = t_ns
        fidelity = self.params.pump_fidelity if kind is OpKind.PUMP else 1.0
        reading = kind is OpKind.READ
        pairs = self._pairs[f_rail]
        retrieved = 0.0
        emptied = False
        for f, slot in self._stored.items():
            amplitude, t_birth_ns, drawn, a_birth = slot
            d, dep, tau_us = pairs[f]
            left = slot[0] = amplitude * (1.0 - fidelity * dep)
            if left == 0.0:
                emptied = True
            if not reading:
                continue
            # the clock and the calibration keep age finite and >= 0 and tau > 0
            age_us = (t_ns - t_birth_ns) / NS_PER_US
            decay = math.exp(-age_us / tau_us)
            # the variance sigma0² + 2 D age is at least sigma0² > 0; past a
            # float it is inf, where the overlap is 1.0
            out = (amplitude * eta_read * decay
                   * physics._overlap(d, physics._spread(self._s2_birth, age_us, self._diff),
                                      self._v_read))
            if f != f_rail:
                out = min(out, max(a_birth - slot[0] * decay - drawn, 0.0))
                slot[2] = drawn + out
            retrieved += out
        if emptied:
            self._stored = {f: slot for f, slot in self._stored.items() if slot[0] != 0.0}
        if kind is OpKind.WRITE:
            # the pulse zeroed and dropped this rail's older component, so the
            # new one is inserted last and reads sum in write order
            stored = energy * eta_write
            self._stored[f_rail] = [stored, t_ns, 0.0, stored]
            return energy - stored, stored
        slot = self._stored.get(f_rail)
        return retrieved, 0.0 if slot is None else slot[0]


def run_sequence(state: Memory, seq: Sequence) -> Trace:
    """Apply a sequence to a memory, producing one trace row per operation.

    The sequence is checked first by ``seqlang.validate`` against the
    memory's parameters and calibrations, so every declared rail must
    have a calibration (E003). Any error-severity diagnostic raises
    ValidationFailure before the first operation, leaving the memory
    untouched. The trace shares the sequence's kind and rail columns.
    """
    # looked up on the module when called, so a wrapper of it sees this pass
    diags = seqlang.validate(seq, state.params, state._rails.values())
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise seqlang.ValidationFailure(errors)
    out_energy, stored_after = array("d"), array("d")
    for out, after in map(state._op, seq.t_ns, seq.kind, seq.f_rail, seq.energy):
        out_energy.append(out)
        stored_after.append(after)
    return Trace._of_columns(array("d", seq.t_ns), seq.kind, seq.f_rail, out_energy, stored_after)


@functools.lru_cache(maxsize=1)
def _time_axis(n: int, period: float) -> bytes:
    """The float64 bytes of ``float(i) * period`` for i in range(n): the one time grid.

    Bytes, so no caller can change what the next one gets. The last axis
    built stays cached (n x 8 bytes), so a waveform rendered and then
    printed on one grid builds it once. Built a chunk at a time, so no list
    of the whole span is alive; struct packs a chunk faster than fromlist.
    On a 1 ns grid a chunk is a running sum of 1.0 from float(k), since
    struct takes floats faster than it converts ints; each sum is exact,
    float(k + o), as every sample count is far below 2**53.
    """
    chunks = []
    offsets = [float(o) for o in range(min(n, _RENDER_CHUNK))]
    for k in range(0, n, _RENDER_CHUNK):
        j = min(k + _RENDER_CHUNK, n)
        if period == 1.0:  # float(i) * 1.0 is float(i)
            values = accumulate(repeat(1.0, j - k - 1), initial=float(k))
        else:  # for i < 2**53, float(k) + float(o) is exactly float(k + o)
            fk = float(k)
            values = [(fk + o) * period for o in offsets[:j - k]]
        chunks.append(struct.pack(f"{j - k}d", *values))
    return b"".join(chunks)


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
    sample periods, before any buffer or time axis is allocated. Each of
    the three numbers is checked as the float ``core._real`` reads, so a
    positive Fraction period that is 0.0 as a float is refused too, and a
    Decimal renders as its float does.

    ``times_ns`` is a copy of ``_time_axis(n, period)``, which stays cached
    until a render on another grid: n x 8 bytes, 3.2 MB for a 400 us span at
    1 ns and 80 MB at the cap. ``cli.waveform_csv`` compares a chunk's
    times with the same axis, so printing the render builds no second grid.

    A pulse is added only on the samples within 40 sigma of its centre.
    Beyond that the Gaussian is exp(-800), exactly 0.0 in float64, and
    adding energy * 0.0 leaves a sample unchanged, so the window changes
    no bit of the result while the cost follows the number of pulses, not
    the span. Every exponential is ``math.exp``, the C library's, so the
    bytes do not depend on which CPU kernels numpy would dispatch to.

    Windows share work without changing a bit. Equal distances to the grid
    give an equal unit Gaussian, so a window reuses the one before it when
    its distances are equal. On a 1 ns grid, sample i is float(i), and a
    float centre t0 that is a whole number of ns is float(i) - t0 =
    float(i - t0) from it exactly (one rounding of an exact integer), so
    there a window's offset lo - t0 and length stand for its distances and
    none are computed. A window that starts at or past the end of every
    earlier one still holds the floor, so its samples are the floor plus
    the scaled Gaussian, with no read of the waveform; on a 1 ns grid such
    a window is built once per (scale, offset, length) and copied when that
    repeats. Those windows do not overlap, so the copies kept take at most
    as many bytes as the waveform.
    """
    period = _real(sample_period_ns, DomainError,
                   "sample period must be finite and strictly positive", _POSITIVE)
    # + 0.0 stores a -0.0 floor as 0.0, so samples outside every pulse window
    # read the same as samples where a pulse's zero tail was added
    floor = _real(noise_floor, DomainError, "noise floor must be finite and non-negative",
                  0.0) + 0.0
    if span_ns is None:
        span_ns = (trace.t_ns[-1] if len(trace) else 0.0) + 600.0
    span = _real(span_ns, DomainError, "waveform span must be finite and non-negative", 0.0)
    samples = span / period  # inf when the quotient overflows
    if not samples <= MAX_WAVEFORM_SAMPLES:
        count = math.ceil(samples) if math.isfinite(samples) else samples
        raise DomainError(f"waveform has {count} samples, more than {MAX_WAVEFORM_SAMPLES}")
    n = math.ceil(samples)
    t = array("d", _time_axis(n, period))  # a copy: what a caller does to t stays in t
    y = array("d", [floor]) * n
    sigma = SIGNAL_FWHM_NS / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    half = 40.0 * sigma
    last_key = shape = None
    built = {}  # (scale, (offset, length)) -> samples of an isolated window on a 1 ns grid
    reach = 0  # y[reach:] is still the floor
    for t0, energy in zip(trace.t_ns, trace.out_energy):
        if energy > 0.0:
            lo = bisect_left(t, t0 - half)
            hi = bisect_right(t, t0 + half)
            # is_integer() is False for an infinite centre, which int() would refuse
            on_grid = period == 1.0 and t0.is_integer()
            key = (lo - int(t0), hi - lo) if on_grid else [ti - t0 for ti in t[lo:hi]]
            if key != last_key:
                last_key = key
                shape = [math.exp(-(d * d) / (2.0 * sigma * sigma))
                         for d in (ti - t0 for ti in t[lo:hi])]
            scale = energy * norm
            if lo < reach:
                window = array("d", [v + scale * g for v, g in zip(y[lo:hi], shape)])
            elif on_grid:
                window = built.get((scale, key))
                if window is None:
                    window = built[scale, key] = array("d", [floor + scale * g for g in shape])
            else:
                window = array("d", [floor + scale * g for g in shape])
            y[lo:hi] = window
            reach = max(reach, hi)
    return t, y
