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

The value types are plain classes on one small base, ``_Value``, not
frozen dataclasses. A dataclass builds its ``__init__``, ``__repr__``,
``__eq__``, ``__hash__``, ``__setattr__`` and ``__delattr__`` with ``exec``
each time its module is imported, and ``dataclasses`` imports
``inspect``; every ``vapormem`` command would pay for both at start-up.
Methods written in the source load already compiled from ``__pycache__``.
``fields`` and ``replace`` stand in for their ``dataclasses`` namesakes.
"""

from __future__ import annotations

import math
import sys
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


# how an __init__ sets a field of its instance past _Value.__setattr__
_set = object.__setattr__
# the largest finite float; abs(x) <= _FLOAT_MAX is False for NaN, for an
# infinity and for an int too large for a float
_FLOAT_MAX = sys.float_info.max


class _Value:
    """Base of the immutable value types.

    A subclass names its fields in ``__init__`` order in ``_fields``; its
    ``__init__`` sets them with ``_assign`` (or ``_set``) and checks them.
    The base gives what ``@dataclass(frozen=True)`` would: assigning or
    deleting an attribute raises AttributeError, equality and hashing
    compare the values ``_key`` returns, only between instances of the same
    class, and the repr reads ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _assign(self, *values) -> None:
        """Set the fields to values, given in ``_fields`` order."""
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def _key(self) -> tuple:
        """The values equality and hashing compare: every field's."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({args})"


def fields(obj_or_cls) -> tuple[str, ...]:
    """The field names of a value type, or of its instance, in ``__init__`` order."""
    return obj_or_cls._fields


def replace(obj, /, **changes):
    """A copy of a value with the given fields changed.

    The copy is built through the class's constructor, so every check runs
    again: a bad value raises the constructor's error, and a name that is
    not a field raises TypeError.
    """
    kwargs = {name: getattr(obj, name) for name in obj._fields}
    kwargs.update(changes)
    return obj.__class__(**kwargs)


def _require_finite(obj) -> None:
    """Every field of a parameter type must be a finite number."""
    for name in obj._fields:
        _require(abs(getattr(obj, name)) <= _FLOAT_MAX, f"{name} must be finite")


class PhysicsParams(_Value):
    """Calibrated physical constants of the cell, beams and deflector.

    On-rail retrieval decays with the measured per-rail 1/e lifetime,
    exp(-t/tau); that is the model, not a setting.

    Only independent constants are fields: the spin wave starts with the
    signal beam's profile, so ``sigma0`` is the read-only w_signal / 2.

    Fields (units):
        d0: diffusion constant at 0 °C and 760 torr (physics.T_REF_K, P_REF_TORR), cm²/s
        t_cell: cell temperature, K
        p_buffer: buffer-gas pressure, torr
        w_signal: signal beam 1/e² intensity radius, µm
        w_control: control beam 1/e² intensity radius, µm
        w_dep: depletion-kernel radius, µm
        m_dep: depletion-kernel super-Gaussian order
        f_center: deflector band center, MHz
        f_halfband: deflector half bandwidth, MHz
        edge_loss: fractional diffraction-efficiency loss at the band edge
        pos_per_mhz: lateral beam displacement per MHz of drive, µm/MHz
        t_switch: deflector switching time, ns
        pump_fidelity: fraction of residual excitation removed by a pump
    """

    _fields = ("d0", "t_cell", "p_buffer", "w_signal", "w_control", "w_dep", "m_dep",
               "f_center", "f_halfband", "edge_loss", "pos_per_mhz", "t_switch",
               "pump_fidelity")

    def __init__(self, d0: float, t_cell: float, p_buffer: float, w_signal: float,
                 w_control: float, w_dep: float, m_dep: int, f_center: float,
                 f_halfband: float, edge_loss: float, pos_per_mhz: float,
                 t_switch: float, pump_fidelity: float) -> None:
        self._assign(d0, t_cell, p_buffer, w_signal, w_control, w_dep, m_dep, f_center,
                     f_halfband, edge_loss, pos_per_mhz, t_switch, pump_fidelity)
        _require_finite(self)
        for name in ("d0", "t_cell", "p_buffer", "w_signal", "w_control", "w_dep",
                     "f_halfband", "pos_per_mhz", "t_switch"):
            _require(getattr(self, name) > 0.0, f"{name} must be strictly positive")
        _require(0.0 <= edge_loss < 1.0, "edge_loss must lie in [0, 1)")
        _require(0.0 <= pump_fidelity <= 1.0, "pump_fidelity must lie in [0, 1]")
        # a component's variance starts at sigma0², which must be a positive float
        _require(0.0 < self.sigma0 * self.sigma0 <= _FLOAT_MAX,
                 "sigma0² = (w_signal / 2)² must be a strictly positive finite float")
        _require(m_dep >= 1, "m_dep must be at least 1")

    @property
    def sigma0(self) -> float:
        """Initial spin-wave standard deviation per axis, µm: half the signal radius."""
        return self.w_signal / 2.0

    @property
    def band(self) -> tuple[float, float]:
        """Usable drive-frequency interval (min, max) in MHz."""
        return (self.f_center - self.f_halfband, self.f_center + self.f_halfband)

    def in_band(self, f_mhz: float) -> bool:
        lo, hi = self.band
        return lo <= f_mhz <= hi


class RailCalibration(_Value):
    """Measured properties of one storage rail.

    eta_mem is the internal memory efficiency at zero storage time. Only
    this product is measured; the model splits it evenly into a capture
    factor applied at write time and a retrieval factor applied at read
    time: eta_write = sqrt(eta_mem) and eta_read = eta_mem / eta_write,
    both computed from it.
    """

    _fields = ("f_rail", "tau_us", "tau_err_us", "eta_mem")

    def __init__(self, f_rail: float, tau_us: float, tau_err_us: float,
                 eta_mem: float) -> None:
        self._assign(f_rail, tau_us, tau_err_us, eta_mem)
        _require_finite(self)
        _require(tau_us > 0.0, "tau_us must be strictly positive")
        _require(tau_err_us >= 0.0, "tau_err_us must be non-negative")
        _require(0.0 < eta_mem <= 1.0, "eta_mem must lie in (0, 1]")

    @property
    def eta_write(self) -> float:
        """Capture factor applied at write time."""
        return self.eta_mem ** 0.5

    @property
    def eta_read(self) -> float:
        """Retrieval factor applied at read time."""
        return self.eta_mem / self.eta_write


class SpinWaveComponent(_Value):
    """Snapshot of one stored Gaussian excitation, as ``Memory.components`` gives it.

    amplitude is the stored energy in normalized input-pulse units, and
    t_birth_ns the time of the write that stored it: the whole stored
    state. Its centre and lifetime are its rail's, and its per-axis
    variance, sigma0² + 2 D age, follows from its age.
    """

    _fields = ("amplitude", "t_birth_ns")

    def __init__(self, amplitude: float, t_birth_ns: float) -> None:
        self._assign(amplitude, t_birth_ns)
        _require(amplitude >= 0.0, "amplitude must be non-negative")


class Operation(_Value):
    """One scheduled memory operation; energy only applies to writes."""

    _fields = ("t_ns", "kind", "f_rail", "energy")

    def __init__(self, t_ns: float, kind: OpKind, f_rail: float, energy: float = 1.0) -> None:
        _set(self, "t_ns", t_ns)
        _set(self, "kind", kind)
        _set(self, "f_rail", f_rail)
        # parse builds every op of a program here, so each check is a chained
        # comparison, not a call
        if not 0.0 <= t_ns <= _FLOAT_MAX:
            raise ParamError("operation time must be finite and non-negative")
        if not -_FLOAT_MAX <= energy <= _FLOAT_MAX:
            raise ParamError("operation energy must be finite")
        if kind is not OpKind.WRITE:
            energy = 1.0  # ignored, so equality and the text format ignore it too
        elif not energy > 0.0:
            raise ParamError("write energy must be strictly positive")
        _set(self, "energy", energy)


class Sequence(_Value):
    """A named, time-ordered program of operations on declared rails.

    Construction enforces strictly increasing times and declared rails;
    the softer timing rules (switching time, band membership, rail
    separation) are the job of ``seqlang.validate``. ``src_lines`` maps
    each operation to its line in the source document when the sequence
    was parsed from text; it and ``rails_line`` are presentation metadata
    and are ignored by equality and hashing.
    """

    _fields = ("name", "rails", "ops", "src_lines", "rails_line")

    def __init__(self, name: str, rails: tuple[float, ...], ops: tuple[Operation, ...],
                 src_lines: tuple[int, ...] | None = None,
                 rails_line: int | None = None) -> None:
        self._assign(name, tuple(rails), tuple(ops),
                     None if src_lines is None else tuple(src_lines), rails_line)
        if self.src_lines is not None:
            _require(len(self.src_lines) == len(self.ops), "src_lines must parallel ops")
        if len(set(self.rails)) != len(self.rails):
            raise DuplicateRailError(f"sequence {name!r} declares a rail twice")
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

    def _key(self) -> tuple:
        return (self.name, self.rails, self.ops)


class TraceEvent(_Value):
    """Per-operation record: leakage (write) or retrieved energy (read)."""

    _fields = ("t_ns", "kind", "f_rail", "out_energy", "stored_after")

    def __init__(self, t_ns: float, kind: OpKind, f_rail: float, out_energy: float,
                 stored_after: float) -> None:
        _set(self, "t_ns", t_ns)
        _set(self, "kind", kind)
        _set(self, "f_rail", f_rail)
        _set(self, "out_energy", out_energy)
        _set(self, "stored_after", stored_after)
        # run_sequence builds one event per op, so the checks are comparisons
        # as in Operation; -inf <= t_ns <= inf is False only for NaN
        if not -math.inf <= t_ns <= math.inf:
            raise ParamError("t_ns must not be NaN")
        if not -_FLOAT_MAX <= out_energy <= _FLOAT_MAX:
            raise ParamError("out_energy must be finite")
        if out_energy < 0.0:
            raise ParamError("out_energy must be non-negative")
        if not -_FLOAT_MAX <= stored_after <= _FLOAT_MAX:
            raise ParamError("stored_after must be finite")
        if stored_after < 0.0:
            raise ParamError("stored_after must be non-negative")


class Trace(_Value):
    """The deterministic record of a simulated sequence."""

    _fields = ("events",)

    def __init__(self, events: tuple[TraceEvent, ...]) -> None:
        _set(self, "events", tuple(events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class FitResult(_Value):
    """Result of an exponential-decay fit y = a0 * exp(-t / tau)."""

    _fields = ("a0", "tau_us", "tau_err_us", "rss")

    def __init__(self, a0: float, tau_us: float, tau_err_us: float, rss: float) -> None:
        self._assign(a0, tau_us, tau_err_us, rss)
        _require_finite(self)
        _require(tau_us > 0.0, "fitted tau must be strictly positive")
        _require(rss >= 0.0, "rss must be non-negative")


def default_params() -> PhysicsParams:
    """Calibrated default parameters of the four-rail cesium cell.

    The cell runs at 60 °C with 5 torr of nitrogen buffer gas; the
    deflector band is 200±50 MHz with 25 % diffraction loss at the edges
    and 8 MHz of drive change moving the beam by one signal radius
    (270 µm, hence 33.75 µm/MHz). d0 is quoted at 0 °C and 760 torr.
    sigma0 = w_signal / 2 = 135 µm, the signal beam's intensity standard
    deviation, is not a parameter. The depletion kernel (w_dep, m_dep) is
    calibrated so a read fully depletes excitations up to one signal
    radius away while leaving rails 20 MHz away untouched.
    """
    return PhysicsParams(
        d0=0.24,
        t_cell=333.15,
        p_buffer=5.0,
        w_signal=270.0,
        w_control=350.0,
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
