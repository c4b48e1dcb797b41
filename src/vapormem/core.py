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

A numeric argument may be any real number that is not text (a float, int,
Fraction, Decimal or numpy scalar): ``_real`` reads it once, as its float,
and refuses it with the caller's error outside the argument's range. A rail,
an identity, is kept as given and read as a number only where it is used as one.

A Sequence holds its operations, and a Trace its events, as columns named
after the fields of Operation and TraceEvent. ``seqlang.parse`` and
``engine.run_sequence`` build them from columns with no per-op object;
``Sequence.ops`` and ``Trace.events`` are built on first access, and the
public constructors still take Operations and TraceEvents.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Iterable
from enum import Enum
from functools import cached_property
from operator import attrgetter


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
# the largest finite float, the default bounds of _real
_FLOAT_MAX = sys.float_info.max
# the least positive float: as _real's lo, it reads "strictly positive"
_POSITIVE = 5e-324


def _float(x) -> float:
    """float(x) for a real number x, and NaN for any other: text (which float() parses),
    None, a complex or a Decimal sNaN.

    An int or Fraction past a float is the infinity of its sign, as float()
    makes a Decimal past one.
    """
    if isinstance(x, (str, bytes, bytearray)):
        return math.nan
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    except (TypeError, ValueError):
        return math.nan


def _real(x, error: type[VaporMemError], message: str, lo: float = -_FLOAT_MAX,
          hi: float = _FLOAT_MAX) -> float:
    """x as a float within [lo, hi], or error(message): the one reader of a numeric argument.

    By default the range is every finite float. A NaN of any type and a
    value that is no number (see ``_float``) fall outside every range; an
    infinity, or a value past a float, which reads as one, falls outside it
    unless lo or hi is one. The caller compares and computes on the float
    it gets back.
    """
    if x.__class__ is not float:
        x = _float(x)
    if lo <= x <= hi:
        return x
    raise error(message)


class _Value:
    """Base of the immutable value types.

    A subclass names its fields in ``__init__`` order in ``_fields``; its
    ``__init__`` sets them with ``_assign``, ``_assign_finite`` or ``_set``
    and checks them. Sequence and Trace also set the columns they name in
    ``_columns`` with ``_assign_columns``.
    The base gives what ``@dataclass(frozen=True)`` would: assigning or
    deleting an attribute raises AttributeError, equality and hashing
    compare the values ``_key`` returns, only between instances of the same
    class, and the repr reads ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()
    _columns: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _assign(self, *values) -> None:
        """Set the fields to values, given in ``_fields`` order."""
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def _assign_columns(self, *columns) -> None:
        """Set the columns a subclass names in ``_columns``, given in that order."""
        for name, column in zip(self._columns, columns, strict=True):
            _set(self, name, column)

    def _assign_finite(self, *values) -> None:
        """Set the fields to values read by ``_real``: ParamError "<field> must be finite"."""
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, _real(value, ParamError, f"{name} must be finite"))

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


def _fmt_number(x) -> str:
    """Shortest plain-decimal rendition (no exponent) that round-trips.

    ``+ 0.0`` prints -0.0 as 0, an exponent is expanded through Decimal,
    and an integral value drops its ``.0``. Every sentence that names a
    rail prints its MHz this way. An int, a Fraction or a finite Decimal
    too large for a float prints its ``as_integer_ratio()`` as ``str``
    prints an int or a Fraction, ``n`` or ``n/d``, but its digits go
    through Decimal too, since ``str`` refuses an int of more than 4300.
    A value that is no number, such as a str, prints as nan.
    """
    f = _float(x) + 0.0
    if math.isinf(f) and f != x:  # a value past a float
        n, d = x.as_integer_ratio()
        return _plain_decimal(n) if d == 1 else f"{_plain_decimal(n)}/{_plain_decimal(d)}"
    s = repr(f)
    if "e" not in s:
        return s.removesuffix(".0")
    return _plain_decimal(s)


def _plain_decimal(v: int | str) -> str:
    """An int, or a float's repr, in plain decimal digits, with no exponent and no ``.0``."""
    from decimal import Decimal  # imported here to keep it off start-up

    return format(Decimal(v), "f").removesuffix(".0")


class PhysicsParams(_Value):
    """Calibrated physical constants of the cell, beams and deflector.

    On-rail retrieval decays with the measured per-rail 1/e lifetime,
    exp(-t/tau); that is the model, not a setting.

    Only independent constants are fields: the spin wave starts with the
    signal beam's profile, so ``sigma0`` is the read-only w_signal / 2.
    Nor is the deflector's edge loss: the measured rail efficiencies
    already include it, so it is the constant ``physics.AOD_EDGE_LOSS``.

    Fields (units):
        d0: diffusion constant at 0 °C and 760 torr (physics.T_REF_K, P_REF_TORR), cm²/s
        t_cell: cell temperature, K
        p_buffer: buffer-gas pressure, torr
        w_signal: signal beam 1/e² intensity radius, µm
        w_control: control beam 1/e² intensity radius, µm
        w_dep: depletion-kernel radius, µm
        m_dep: depletion-kernel super-Gaussian order
        f_center: deflector band center, MHz
        f_halfband: deflector half bandwidth, MHz; the band is f_center ± f_halfband
        pos_per_mhz: lateral beam displacement per MHz of drive, µm/MHz
        t_switch: deflector switching time, ns
        pump_fidelity: fraction of residual excitation removed by a pump
    """

    _fields = ("d0", "t_cell", "p_buffer", "w_signal", "w_control", "w_dep", "m_dep",
               "f_center", "f_halfband", "pos_per_mhz", "t_switch", "pump_fidelity")

    def __init__(self, d0: float, t_cell: float, p_buffer: float, w_signal: float,
                 w_control: float, w_dep: float, m_dep: int, f_center: float,
                 f_halfband: float, pos_per_mhz: float, t_switch: float,
                 pump_fidelity: float) -> None:
        self._assign_finite(d0, t_cell, p_buffer, w_signal, w_control, w_dep, m_dep, f_center,
                            f_halfband, pos_per_mhz, t_switch, pump_fidelity)
        if isinstance(m_dep, int):
            _set(self, "m_dep", m_dep)  # a whole order keeps its int repr
        for name in ("d0", "t_cell", "p_buffer", "w_signal", "w_control", "w_dep",
                     "f_halfband", "pos_per_mhz", "t_switch"):
            _require(getattr(self, name) > 0.0, f"{name} must be strictly positive")
        _require(0.0 <= self.pump_fidelity <= 1.0, "pump_fidelity must lie in [0, 1]")
        # a component's variance starts at sigma0², which must be a positive float
        _require(0.0 < self.sigma0 * self.sigma0 <= _FLOAT_MAX,
                 "sigma0² = (w_signal / 2)² must be a strictly positive finite float")
        _require(self.m_dep >= 1, "m_dep must be at least 1")

    @property
    def sigma0(self) -> float:
        """Initial spin-wave standard deviation per axis, µm: half the signal radius."""
        return self.w_signal / 2.0


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
        self._assign_finite(f_rail, tau_us, tau_err_us, eta_mem)
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


def _rail_table(rails: Iterable[RailCalibration]) -> dict[float, RailCalibration]:
    """Each rail's calibration by its MHz, or DuplicateRailError for a rail given twice."""
    cals: dict[float, RailCalibration] = {}
    for cal in rails:
        if cal.f_rail in cals:
            raise DuplicateRailError(f"rail {_fmt_number(cal.f_rail)} MHz declared twice")
        cals[cal.f_rail] = cal
    return cals


def _calibration(cals: dict[float, RailCalibration], f_rail: float) -> RailCalibration:
    """cals[f_rail], or the UnknownRailError every entry point prints for a rail with none.

    ``cals`` may be any table keyed by the calibrated rails, as the memory's
    table of rail efficiencies is. A rail that cannot be hashed, such as a
    ``Decimal("sNaN")``, names no rail either: it gets the same error,
    named ``nan`` by ``_fmt_number``.
    """
    try:
        return cals[f_rail]
    except (KeyError, TypeError):
        listing = ", ".join(map(_fmt_number, sorted(cals)))
        raise UnknownRailError(f"rail {_fmt_number(f_rail)} MHz has no calibration "
                               f"(calibrated rails: {listing} MHz)") from None


class SpinWaveComponent(_Value):
    """Snapshot of one stored Gaussian excitation, as ``Memory.components`` gives it.

    amplitude is the stored energy in normalized input-pulse units, and
    t_birth_ns the time of the write that stored it: the whole stored
    state. Its centre and lifetime are its rail's, and its per-axis
    variance, sigma0² + 2 D age, follows from its age.
    """

    _fields = ("amplitude", "t_birth_ns")

    def __init__(self, amplitude: float, t_birth_ns: float) -> None:
        self._assign_finite(amplitude, t_birth_ns)
        _require(self.amplitude >= 0.0, "amplitude must be non-negative")


class Operation(_Value):
    """One scheduled memory operation; energy only applies to writes.

    The one check of an op's values: a time that is not finite and
    non-negative, or a write energy that is not finite and positive,
    raises ParamError. Both are stored as floats; the rail, an identity, is
    kept as given. ``Memory.write``, ``read`` and ``pump`` build one.
    """

    _fields = ("t_ns", "kind", "f_rail", "energy")

    def __init__(self, t_ns: float, kind: OpKind, f_rail: float, energy: float = 1.0) -> None:
        _set(self, "t_ns", _real(t_ns, ParamError, "operation time must be finite and non-negative",
                                 0.0))
        _set(self, "kind", kind)
        _set(self, "f_rail", f_rail)
        energy = _real(energy, ParamError, "operation energy must be finite")
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

    The operations are held as columns, one tuple per Operation field and
    named after it: ``seq.t_ns[i]``, ``kind[i]``, ``f_rail[i]`` and
    ``energy[i]`` are those of ``seq.ops[i]``. ``seqlang.parse`` builds a
    sequence from the columns its Reader read, and then ``ops`` is built on
    first access; equality and hashing compare the columns. A rail that
    cannot be hashed, such as a ``Decimal("sNaN")``, raises ParamError.
    """

    _fields = ("name", "rails", "ops", "src_lines", "rails_line")
    _columns = Operation._fields

    def __init__(self, name: str, rails: tuple[float, ...], ops: tuple[Operation, ...],
                 src_lines: tuple[int, ...] | None = None,
                 rails_line: int | None = None) -> None:
        self._assign(name, tuple(rails), tuple(ops),
                     None if src_lines is None else tuple(src_lines), rails_line)
        self._assign_columns(*(zip(*map(attrgetter(*self._columns), self.ops)) if self.ops
                               else ((),) * 4))
        if self.src_lines is not None:
            _require(len(self.src_lines) == len(self.ops), "src_lines must parallel ops")
        try:  # the rails are hashed here, and only here
            declared = set(self.rails)
            undeclared = [f not in declared for f in self.f_rail]
        except TypeError:
            raise ParamError(f"sequence {name!r} has a rail that cannot be hashed, "
                             f"such as a Decimal sNaN") from None
        if len(declared) != len(self.rails):
            raise DuplicateRailError(f"sequence {name!r} declares a rail twice")
        prev = None
        for t_ns, f_rail, missing in zip(self.t_ns, self.f_rail, undeclared):
            if prev is not None and t_ns <= prev:
                raise ParamError(
                    f"operation times must strictly increase ({t_ns} ns after {prev} ns)")
            prev = t_ns
            if missing:
                raise UnknownRailError(f"operation at {t_ns} ns uses undeclared rail "
                                       f"{_fmt_number(f_rail)} MHz")

    @classmethod
    def _of_columns(cls, name: str, rails: tuple[float, ...], t_ns: tuple[float, ...],
                    kind: tuple[OpKind, ...], f_rail: tuple[float, ...],
                    energy: tuple[float, ...], src_lines: tuple[int, ...],
                    rails_line: int | None) -> Sequence:
        """A sequence of columns that ``seqlang.Reader`` read, with no Operation built.

        The Reader has checked every rule the constructor and Operation
        check: its rails are distinct floats, and each row's rail is
        declared, its time a finite float above the last and its energy a
        finite positive float, 1.0 on a READ or PUMP.
        """
        seq = cls.__new__(cls)
        _set(seq, "name", name)
        _set(seq, "rails", rails)
        _set(seq, "src_lines", src_lines)
        _set(seq, "rails_line", rails_line)
        seq._assign_columns(t_ns, kind, f_rail, energy)
        return seq

    @cached_property
    def ops(self) -> tuple[Operation, ...]:
        """One Operation per row of the columns: built on first access, then kept."""
        return tuple(map(Operation, self.t_ns, self.kind, self.f_rail, self.energy))

    def _key(self) -> tuple:
        return (self.name, self.rails, self.t_ns, self.kind, self.f_rail, self.energy)


class TraceEvent(_Value):
    """Per-operation record: leakage (write) or retrieved energy (read)."""

    _fields = ("t_ns", "kind", "f_rail", "out_energy", "stored_after")

    def __init__(self, t_ns: float, kind: OpKind, f_rail: float, out_energy: float,
                 stored_after: float) -> None:
        # a time may be infinite: only a NaN is no time
        _set(self, "t_ns", _real(t_ns, ParamError, "t_ns must not be NaN", -math.inf, math.inf))
        _set(self, "kind", kind)
        _set(self, "f_rail", f_rail)
        _set(self, "out_energy", _real(out_energy, ParamError, "out_energy must be finite"))
        if self.out_energy < 0.0:
            raise ParamError("out_energy must be non-negative")
        _set(self, "stored_after", _real(stored_after, ParamError, "stored_after must be finite"))
        if self.stored_after < 0.0:
            raise ParamError("stored_after must be non-negative")


class Trace(_Value):
    """The deterministic record of a simulated sequence.

    Its events are held as columns named after the TraceEvent fields:
    ``t_ns``, ``out_energy`` and ``stored_after`` are ``array('d')``
    buffers, ``kind`` and ``f_rail`` tuples, so ``trace.out_energy[i]`` is
    ``trace.events[i].out_energy``. ``engine.run_sequence`` fills the
    columns and builds no TraceEvent; ``events`` and iteration build them
    on first use, and ``Trace(events)`` takes TraceEvents as before.
    Equality and hashing compare the columns.
    """

    _fields = ("events",)
    _columns = TraceEvent._fields

    def __init__(self, events: tuple[TraceEvent, ...]) -> None:
        _set(self, "events", tuple(events))
        t_ns, kind, f_rail, out_energy, stored_after = (
            zip(*map(attrgetter(*self._columns), self.events)) if self.events else ((),) * 5)
        self._assign_columns(array("d", t_ns), kind, f_rail, array("d", out_energy),
                             array("d", stored_after))

    @classmethod
    def _of_columns(cls, t_ns: array, kind: tuple[OpKind, ...], f_rail: tuple[float, ...],
                    out_energy: array, stored_after: array) -> Trace:
        """A trace of its columns, kept as given, with no TraceEvent built."""
        trace = cls.__new__(cls)
        trace._assign_columns(t_ns, kind, f_rail, out_energy, stored_after)
        return trace

    @cached_property
    def events(self) -> tuple[TraceEvent, ...]:
        """One TraceEvent per row of the columns: built on first access, then kept."""
        return tuple(map(TraceEvent, self.t_ns, self.kind, self.f_rail, self.out_energy,
                         self.stored_after))

    def _key(self) -> tuple:
        return (tuple(self.t_ns), self.kind, self.f_rail, tuple(self.out_energy),
                tuple(self.stored_after))

    def __len__(self) -> int:
        return len(self.t_ns)

    def __iter__(self):
        return iter(self.events)


class FitResult(_Value):
    """Result of an exponential-decay fit y = a0 * exp(-t / tau)."""

    _fields = ("a0", "tau_us", "tau_err_us", "rss")

    def __init__(self, a0: float, tau_us: float, tau_err_us: float, rss: float) -> None:
        self._assign_finite(a0, tau_us, tau_err_us, rss)
        _require(self.tau_us > 0.0, "fitted tau must be strictly positive")
        _require(self.rss >= 0.0, "rss must be non-negative")


def default_params() -> PhysicsParams:
    """Calibrated default parameters of the four-rail cesium cell.

    The cell runs at 60 °C with 5 torr of nitrogen buffer gas; the
    deflector band is 200±50 MHz (its 25 % diffraction loss at the edges
    is ``physics.AOD_EDGE_LOSS``, already in the measured rail efficiencies)
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
