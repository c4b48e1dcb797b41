"""Domain types for the multi-rail vapor memory simulator.

Everything in this module is a plain immutable value: calibrated physical
constants, per-rail calibration, stored spin-wave components, experiment
operations and their traces. No physics is computed here; the modules
``physics``, ``engine`` and ``harness`` consume these types.

Unit conventions used throughout the package:

* lengths in µm, variances in µm²
* times of operations in ns, storage times and lifetimes in µs
* diffusion coefficients in cm²/s
* frequencies in MHz
* energies in units of the normalization pulse (a unit input pulse has
  energy 1.0)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum


class VaporMemError(Exception):
    """Base class for all errors raised by this package."""


class ParamError(VaporMemError):
    """A value violates a construction invariant."""


class DomainError(VaporMemError):
    """A function argument is outside its mathematical domain."""


class OutOfBandError(DomainError):
    """A drive frequency lies outside the deflector band."""


class TimeOrderError(VaporMemError):
    """An operation was scheduled before the memory's current time."""


class UnknownRailError(VaporMemError):
    """An operation addressed a rail that was never declared."""


class DuplicateRailError(VaporMemError):
    """Two rails were declared at the same drive frequency."""


class OpKind(Enum):
    WRITE = "WRITE"
    READ = "READ"
    PUMP = "PUMP"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamError(msg)


def _require_finite(obj) -> None:
    """Every field of a parameter type must be a finite number."""
    for f in fields(obj):
        # unlike math.isfinite, the comparison also holds for an int too large
        # for a float, and it is False for NaN
        _require(abs(getattr(obj, f.name)) <= sys.float_info.max, f"{f.name} must be finite")


@dataclass(frozen=True)
class PhysicsParams:
    """Calibrated physical constants of the cell, beams and deflector.

    On-rail retrieval decays with the measured per-rail 1/e lifetime,
    exp(-t/tau); that is the model, not a setting.

    Fields (units):
        d0: diffusion constant at reference conditions, cm²/s
        t0: reference temperature, K
        p0: reference pressure, torr
        t_cell: cell temperature, K
        p_buffer: buffer-gas pressure, torr
        w_signal: signal beam 1/e² intensity radius, µm
        w_control: control beam 1/e² intensity radius, µm
        sigma0: initial spin-wave Gaussian standard deviation per axis, µm
        w_dep: depletion-kernel radius, µm
        m_dep: depletion-kernel super-Gaussian order
        f_center: deflector band center, MHz
        f_halfband: deflector half bandwidth, MHz
        edge_loss: fractional diffraction-efficiency loss at the band edge
        pos_per_mhz: lateral beam displacement per MHz of drive, µm/MHz
        t_switch: deflector switching time, ns
        pump_fidelity: fraction of residual excitation removed by a pump
    """

    d0: float
    t0: float
    p0: float
    t_cell: float
    p_buffer: float
    w_signal: float
    w_control: float
    sigma0: float
    w_dep: float
    m_dep: int
    f_center: float
    f_halfband: float
    edge_loss: float
    pos_per_mhz: float
    t_switch: float
    pump_fidelity: float

    def __post_init__(self) -> None:
        _require_finite(self)
        for name in ("d0", "t0", "p0", "t_cell", "p_buffer", "w_signal",
                     "w_control", "sigma0", "w_dep"):
            _require(getattr(self, name) > 0.0, f"{name} must be strictly positive")
        _require(0.0 <= self.edge_loss < 1.0, "edge_loss must lie in [0, 1)")
        _require(0.0 <= self.pump_fidelity <= 1.0, "pump_fidelity must lie in [0, 1]")
        # a component's variance starts at sigma0², which must be a positive float
        _require(0.0 < self.sigma0 * self.sigma0 <= sys.float_info.max,
                 "sigma0² must be a strictly positive finite float")
        _require(self.m_dep >= 1, "m_dep must be at least 1")
        _require(self.f_halfband > 0.0, "f_halfband must be strictly positive")
        _require(self.t_switch > 0.0, "t_switch must be strictly positive")
        _require(self.pos_per_mhz > 0.0, "pos_per_mhz must be strictly positive")

    @property
    def band(self) -> tuple[float, float]:
        """Usable drive-frequency interval (min, max) in MHz."""
        return (self.f_center - self.f_halfband, self.f_center + self.f_halfband)

    def in_band(self, f_mhz: float) -> bool:
        lo, hi = self.band
        return lo <= f_mhz <= hi


@dataclass(frozen=True)
class RailCalibration:
    """Measured properties of one storage rail.

    eta_mem is the internal memory efficiency at zero storage time. Only
    this product is measured; the model splits it evenly into a capture
    factor applied at write time and a retrieval factor applied at read
    time: eta_write = sqrt(eta_mem) and eta_read = eta_mem / eta_write,
    both computed from it.
    """

    f_rail: float
    tau_us: float
    tau_err_us: float
    eta_mem: float

    def __post_init__(self) -> None:
        _require_finite(self)
        _require(self.tau_us > 0.0, "tau_us must be strictly positive")
        _require(self.tau_err_us >= 0.0, "tau_err_us must be non-negative")
        _require(0.0 < self.eta_mem <= 1.0, "eta_mem must lie in (0, 1]")

    @property
    def eta_write(self) -> float:
        """Capture factor applied at write time."""
        return self.eta_mem ** 0.5

    @property
    def eta_read(self) -> float:
        """Retrieval factor applied at read time."""
        return self.eta_mem / self.eta_write


@dataclass(frozen=True)
class SpinWaveComponent:
    """Snapshot of one stored Gaussian excitation, as ``Memory.components`` gives it.

    amplitude is the stored energy in normalized input-pulse units.
    x_center and tau_us are those of the rail the component was written
    on. s2 is the per-axis spatial variance at the time of the snapshot,
    computed from the component's age as sigma0² + 2 D age; the memory
    itself keeps only the amplitude and the birth time.
    """

    amplitude: float
    x_center: float
    s2: float
    t_birth_ns: float
    tau_us: float

    def __post_init__(self) -> None:
        _require(self.amplitude >= 0.0, "amplitude must be non-negative")
        _require(self.s2 > 0.0, "s2 must be strictly positive")
        _require(self.tau_us > 0.0, "tau_us must be strictly positive")


@dataclass(frozen=True)
class Operation:
    """One scheduled memory operation; energy only applies to writes."""

    t_ns: float
    kind: OpKind
    f_rail: float
    energy: float = 1.0

    def __post_init__(self) -> None:
        _require(math.isfinite(self.t_ns) and self.t_ns >= 0.0,
                 "operation time must be finite and non-negative")
        _require(math.isfinite(self.energy), "operation energy must be finite")
        if self.kind is OpKind.WRITE:
            _require(self.energy > 0.0, "write energy must be strictly positive")


@dataclass(frozen=True)
class Sequence:
    """A named, time-ordered program of operations on declared rails.

    Construction enforces strictly increasing times and declared rails;
    the softer timing rules (switching time, band membership, rail
    separation) are the job of ``seqlang.validate``. ``src_lines`` maps
    each operation to its line in the source document when the sequence
    was parsed from text; it is presentation metadata and is ignored by
    equality.
    """

    name: str
    rails: tuple[float, ...]
    ops: tuple[Operation, ...]
    src_lines: tuple[int, ...] | None = field(default=None, compare=False)
    rails_line: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rails", tuple(self.rails))
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.src_lines is not None:
            object.__setattr__(self, "src_lines", tuple(self.src_lines))
            _require(len(self.src_lines) == len(self.ops),
                     "src_lines must parallel ops")
        if len(set(self.rails)) != len(self.rails):
            raise DuplicateRailError(f"sequence {self.name!r} declares a rail twice")
        declared = set(self.rails)
        prev = None
        for op in self.ops:
            if prev is not None and op.t_ns <= prev:
                raise ParamError(
                    f"operation times must strictly increase ({op.t_ns} ns after {prev} ns)")
            prev = op.t_ns
            if op.f_rail not in declared:
                raise UnknownRailError(
                    f"operation at {op.t_ns} ns uses undeclared rail {op.f_rail} MHz")

    @property
    def span_ns(self) -> float:
        """Time of the last operation (0 for an empty sequence)."""
        return self.ops[-1].t_ns if self.ops else 0.0


@dataclass(frozen=True)
class TraceEvent:
    """Per-operation record: leakage (write) or retrieved energy (read)."""

    t_ns: float
    kind: OpKind
    f_rail: float
    out_energy: float
    stored_after: float

    def __post_init__(self) -> None:
        _require(not math.isnan(self.t_ns), "t_ns must not be NaN")
        _require(math.isfinite(self.out_energy), "out_energy must be finite")
        _require(self.out_energy >= 0.0, "out_energy must be non-negative")
        _require(math.isfinite(self.stored_after), "stored_after must be finite")
        _require(self.stored_after >= 0.0, "stored_after must be non-negative")


@dataclass(frozen=True)
class Trace:
    """The deterministic record of a simulated sequence."""

    events: tuple[TraceEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


@dataclass(frozen=True)
class FitResult:
    """Result of an exponential-decay fit y = a0 * exp(-t / tau)."""

    a0: float
    tau_us: float
    tau_err_us: float
    rss: float

    def __post_init__(self) -> None:
        _require(self.tau_us > 0.0, "fitted tau must be strictly positive")
        _require(self.rss >= 0.0, "rss must be non-negative")


def default_params() -> PhysicsParams:
    """Calibrated default parameters of the four-rail cesium cell.

    The cell runs at 60 °C with 5 torr of nitrogen buffer gas; the
    deflector band is 200±50 MHz with 25 % diffraction loss at the edges
    and 8 MHz of drive change moving the beam by one signal radius
    (270 µm, hence 33.75 µm/MHz). The diffusion constant is referenced to
    0 °C and 760 torr. sigma0 is the intensity standard deviation of the
    signal beam (half its 1/e² radius). The depletion kernel (w_dep,
    m_dep) is calibrated so a read fully depletes excitations up to one
    signal radius away while leaving rails 20 MHz away untouched.
    """
    return PhysicsParams(
        d0=0.24,
        t0=273.15,
        p0=760.0,
        t_cell=333.15,
        p_buffer=5.0,
        w_signal=270.0,
        w_control=350.0,
        sigma0=135.0,
        w_dep=450.0,
        m_dep=4,
        f_center=200.0,
        f_halfband=50.0,
        edge_loss=0.25,
        pos_per_mhz=33.75,
        t_switch=48.0,
        pump_fidelity=1.0,
    )


def default_rails() -> tuple[RailCalibration, ...]:
    """Measured lifetime and efficiency of the four standard rails.

    Lifetimes carry the quoted 1-sigma uncertainties; the efficiencies are
    the measured write-read products.
    """
    table = (
        (170.0, 4.3, 0.5, 0.32),
        (190.0, 5.4, 0.7, 0.35),
        (210.0, 3.3, 0.3, 0.39),
        (230.0, 2.6, 0.3, 0.36),
    )
    return tuple(RailCalibration(f, tau, err, eta) for f, tau, err, eta in table)
