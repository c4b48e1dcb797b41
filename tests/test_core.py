import copy
import math
import pickle
import re
from array import array
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vapormem import core, engine, harness, physics, seqlang
from vapormem.core import (
    DomainError,
    DuplicateRailError,
    FitResult,
    OpKind,
    OutOfBandError,
    Operation,
    ParamError,
    PhysicsParams,
    RailCalibration,
    Sequence,
    SpinWaveComponent,
    Trace,
    TraceEvent,
    UnknownRailError,
    default_params,
    default_rails,
)
from vapormem.harness import CriteriaReport, CriterionCheck, ScanResult
from vapormem.seqlang import Diagnostic, ParseError, parse


# a Decimal NaN raises InvalidOperation where a float NaN compares False
NON_FINITE_VALUES = [math.inf, -math.inf, math.nan,
                     pytest.param(Decimal("NaN"), id="Decimal-NaN")]


class TestDefaultParams:
    def test_calibrated_values(self):
        p = default_params()
        assert p.d0 == 0.24
        assert (physics.T_REF_K, physics.P_REF_TORR) == (273.15, 760.0)
        assert p.t_cell == 333.15
        assert p.p_buffer == 5.0
        assert p.w_signal == 270.0
        assert p.w_control == 350.0
        assert p.f_center == 200.0
        assert p.f_halfband == 50.0
        assert p.t_switch == 48.0
        assert p.pump_fidelity == 1.0

    def test_lateral_calibration_is_one_radius_per_8mhz(self):
        p = default_params()
        assert p.pos_per_mhz == pytest.approx(270.0 / 8.0)
        assert p.pos_per_mhz == 33.75

    def test_sigma0_is_half_signal_radius(self):
        p = default_params()
        assert p.sigma0 == p.w_signal / 2.0 == 135.0

    def test_only_independent_constants_are_fields(self):
        names = core.fields(PhysicsParams)
        assert len(names) == 12
        assert not {"sigma0", "t0", "p0", "edge_loss"} & set(names)
        for name in ("sigma0", "t0", "p0", "edge_loss"):
            with pytest.raises(TypeError):
                core.replace(default_params(), **{name: 1.0})

    def test_sigma0_follows_the_signal_beam(self):
        p = core.replace(default_params(), w_signal=300.0)
        assert p.sigma0 == 150.0
        with pytest.raises(AttributeError):
            p.sigma0 = 135.0
        with pytest.raises(ParamError, match=r"^sigma0² = \(w_signal / 2\)² must be"):
            core.replace(p, w_signal=1e200)

    def test_bit_stable_across_calls(self):
        assert default_params() == default_params()
        assert default_rails() == default_rails()

    def test_band(self):
        # f_center ± f_halfband, edges included; physics owns the one check
        p = default_params()
        physics._require_in_band(150.0, p)
        physics._require_in_band(250.0, p)
        for f in (149.999, 250.001):
            with pytest.raises(OutOfBandError, match=r"deflector band \[150, 250\] MHz$"):
                physics._require_in_band(f, p)

    @pytest.mark.parametrize("field,value", [
        ("d0", 0.0), ("d0", -1.0), ("p_buffer", -5.0),
        ("w_signal", 0.0), ("w_control", -1.0),
        ("w_signal", 1e-200), ("w_signal", 1e200),
        ("w_dep", 0.0), ("m_dep", 0), ("f_halfband", 0.0),
        ("t_switch", 0.0),
        ("pump_fidelity", -0.1), ("pump_fidelity", 1.1), ("pos_per_mhz", 0.0),
    ])
    def test_invariants_rejected(self, field, value):
        with pytest.raises(ParamError):
            core.replace(default_params(), **{field: value})

    @pytest.mark.parametrize("field", list(core.fields(PhysicsParams)))
    @pytest.mark.parametrize("value", NON_FINITE_VALUES)
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ParamError, match=f"^{field} must be finite$"):
            core.replace(default_params(), **{field: value})

    def test_order_too_large_for_a_float_rejected(self):
        with pytest.raises(ParamError, match="^m_dep must be finite$"):
            core.replace(default_params(), m_dep=10 ** 400)


class TestRailCalibration:
    def test_measured_table(self):
        rails = {c.f_rail: c for c in default_rails()}
        assert set(rails) == {170.0, 190.0, 210.0, 230.0}
        assert rails[190.0].tau_us == 5.4
        assert rails[190.0].eta_mem == 0.35
        assert rails[170.0].tau_us == 4.3 and rails[170.0].tau_err_us == 0.5
        assert rails[210.0].tau_us == 3.3 and rails[210.0].eta_mem == 0.39
        assert rails[230.0].tau_us == 2.6 and rails[230.0].tau_err_us == 0.3

    def test_symmetric_split_rail_230(self):
        cal = {c.f_rail: c for c in default_rails()}[230.0]
        assert cal.eta_write == cal.eta_read == pytest.approx(0.6, abs=1e-15)

    def test_all_rails_within_band(self):
        assert all(150.0 <= c.f_rail <= 250.0 for c in default_rails())

    def test_split_product_default_rails(self):
        for cal in default_rails():
            assert abs(cal.eta_write * cal.eta_read - cal.eta_mem) <= 1e-12 * cal.eta_mem

    @given(eta=st.floats(1e-6, 1.0))
    def test_split_product_any_share(self, eta):
        # the split is fixed: eta_write = sqrt(eta_mem), eta_read = eta_mem / eta_write
        cal = RailCalibration(200.0, 3.0, 0.1, eta)
        assert cal.eta_write == eta ** 0.5
        assert cal.eta_read == eta / eta ** 0.5
        assert abs(cal.eta_write * cal.eta_read - cal.eta_mem) <= 1e-12 * cal.eta_mem
        assert core.fields(cal) == ("f_rail", "tau_us", "tau_err_us", "eta_mem")

    @pytest.mark.parametrize("kwargs", [
        dict(tau_us=0.0), dict(tau_us=-1.0), dict(eta_mem=0.0), dict(eta_mem=1.5),
    ])
    def test_bad_values_rejected(self, kwargs):
        base = dict(f_rail=190.0, tau_us=5.4, tau_err_us=0.7, eta_mem=0.35)
        base.update(kwargs)
        with pytest.raises(ParamError):
            RailCalibration(**base)

    @pytest.mark.parametrize("field", ["f_rail", "tau_us", "tau_err_us", "eta_mem"])
    @pytest.mark.parametrize("value", NON_FINITE_VALUES)
    def test_non_finite_rejected(self, field, value):
        base = dict(f_rail=190.0, tau_us=5.4, tau_err_us=0.7, eta_mem=0.35)
        base[field] = value
        with pytest.raises(ParamError, match=f"^{field} must be finite$"):
            RailCalibration(**base)


# valid arguments of the two value types built once per op, and each value
# their checks reject with its message; an int too large for a float is
# rejected as not finite
PER_OP_ARGS = {
    Operation: dict(t_ns=0.0, kind=OpKind.WRITE, f_rail=190.0, energy=1.0),
    TraceEvent: dict(t_ns=0.0, kind=OpKind.READ, f_rail=190.0, out_energy=0.5,
                     stored_after=0.0),
}
_NAN = [("nan", math.nan), ("Decimal-NaN", Decimal("NaN"))]
_NON_FINITE = _NAN + [("inf", math.inf), ("-inf", -math.inf), ("10**400", 10**400)]
PER_OP_REJECTIONS = [
    pytest.param(cls, field, value, message, id=f"{cls.__name__}-{field}-{name}")
    for cls, field, message, bad in [
        (Operation, "t_ns", "operation time must be finite and non-negative",
         _NON_FINITE + [("negative", -1.0)]),
        (Operation, "energy", "operation energy must be finite", _NON_FINITE),
        (Operation, "energy", "write energy must be strictly positive",
         [("negative", -1.0), ("zero", 0.0)]),
        (TraceEvent, "t_ns", "t_ns must not be NaN", _NAN),
        (TraceEvent, "out_energy", "out_energy must be finite", _NON_FINITE),
        (TraceEvent, "out_energy", "out_energy must be non-negative", [("negative", -1e-9)]),
        (TraceEvent, "stored_after", "stored_after must be finite", _NON_FINITE),
        (TraceEvent, "stored_after", "stored_after must be non-negative",
         [("negative", -1.0)]),
    ]
    for name, value in bad
]

# every public numeric argument is read by core._real, so each of these
# values, none a float in a finite range (the last is text), raises the
# function's named error with its sentence. (id, value, whether it reads as
# an infinity)
NO_FLOAT_IN_RANGE = [
    ("nan", math.nan, False), ("inf", math.inf, True), ("10**400", 10**400, True),
    ("Decimal-NaN", Decimal("NaN"), False), ("Decimal-sNaN", Decimal("sNaN"), False),
    ("Decimal-1e400", Decimal("1e400"), True), ("Fraction-10**5000", Fraction(10**5000), True),
    ("text", "1.0", False),
]
_P, _RAILS = default_params(), default_rails()
_CAL = _RAILS[1]  # 190 MHz
_EMPTY = Trace(())


def _fresh():
    return engine.Memory(_P, _RAILS)


def _argument(name, call, error, message, infinite=None):
    """A row: the call with x as the argument, and, as regexes, the sentence for
    a NaN and the one for an infinity if it differs (False where one is taken)."""
    return (name, call, error, message, message if infinite is None else infinite)


NUMBER_ARGUMENTS = [
    *[_argument(f"PhysicsParams-{f}", lambda x, f=f: core.replace(_P, **{f: x}), ParamError,
                f"^{f} must be finite$") for f in core.fields(PhysicsParams)],
    *[_argument(f"RailCalibration-{f}", lambda x, f=f: core.replace(_CAL, **{f: x}), ParamError,
                f"^{f} must be finite$") for f in core.fields(RailCalibration)],
    *[_argument(f"FitResult-{f}", lambda x, f=f: FitResult(**{**dict(
        a0=1.0, tau_us=3.3, tau_err_us=0.1, rss=0.0), f: x}), ParamError, f"^{f} must be finite$")
      for f in core.fields(FitResult)],
    _argument("SpinWaveComponent-amplitude", lambda x: SpinWaveComponent(x, 0.0), ParamError,
              "^amplitude must be finite$"),
    _argument("SpinWaveComponent-t_birth_ns", lambda x: SpinWaveComponent(0.5, x), ParamError,
              "^t_birth_ns must be finite$"),
    _argument("Operation-t_ns", lambda x: Operation(x, OpKind.READ, 190.0), ParamError,
              "^operation time must be finite and non-negative$"),
    *[_argument(f"Operation-{kind.value}-energy", lambda x, k=kind: Operation(0.0, k, 190.0, x),
                ParamError, "^operation energy must be finite$") for kind in OpKind],
    _argument("TraceEvent-t_ns", lambda x: TraceEvent(x, OpKind.READ, 190.0, 0.5, 0.0),
              ParamError, "^t_ns must not be NaN$", infinite=False),
    _argument("TraceEvent-out_energy", lambda x: TraceEvent(0.0, OpKind.READ, 190.0, x, 0.0),
              ParamError, "^out_energy must be finite$"),
    _argument("TraceEvent-stored_after", lambda x: TraceEvent(0.0, OpKind.READ, 190.0, 0.5, x),
              ParamError, "^stored_after must be finite$"),
    *[_argument(f"transit_time_us-{i}", lambda x, i=i: physics.transit_time_us(
        *[(x if j == i else 270.0) for j in range(2)]), DomainError,
        "^distance and diffusion coefficient must be finite and positive$") for i in range(2)],
    *[_argument(f"{f.__name__}-f_mhz", lambda x, f=f: f(x, _P), OutOfBandError,
                r"^rail .+ MHz outside deflector band \[150, 250\] MHz$")
      for f in (physics.rail_position_um, physics.aod_efficiency)],
    *[_argument(f"spread_variance_um2-{i}", lambda x, i=i: physics.spread_variance_um2(
        *[(x if j == i else 1.0) for j in range(3)]), DomainError,
        "^spread variance must be a finite float$") for i in range(3)],
    *[_argument(f"overlap_factor-{i}", lambda x, i=i: physics.overlap_factor(
        *[(x if j == i else 1.0) for j in range(2)], _P), DomainError,
        "^variance must be finite and non-negative, and displacement finite$") for i in range(2)],
    _argument("depletion_fraction-d_um", lambda x: physics.depletion_fraction(x, _P),
              DomainError, "^distance must be finite, not NaN or infinite$"),
    *[_argument(f"Memory.{method}-t_ns", lambda x, m=method: getattr(_fresh(), m)(190.0, x),
                ParamError, "^operation time must be finite and non-negative$")
      for method in ("write", "read", "pump")],
    _argument("Memory.write-energy", lambda x: _fresh().write(190.0, 0.0, x), ParamError,
              "^operation energy must be finite$"),
    _argument("render_waveform-sample_period_ns", lambda x: engine.render_waveform(_EMPTY, x),
              DomainError, "^sample period must be finite and strictly positive$"),
    _argument("render_waveform-noise_floor",
              lambda x: engine.render_waveform(_EMPTY, 1.0, noise_floor=x), DomainError,
              "^noise floor must be finite and non-negative$"),
    _argument("render_waveform-span_ns", lambda x: engine.render_waveform(_EMPTY, 1.0, span_ns=x),
              DomainError, "^waveform span must be finite and non-negative$"),
    *[_argument(f"scan_grid-{i}", lambda x, i=i: harness.scan_grid(
        *[(x if j == i else (0.0, 1.0, 1.0)[j]) for j in range(3)]), DomainError,
        "^scan min, max and step must be finite$") for i in range(3)],
    _argument("scan_crosstalk-separation", lambda x: harness.scan_crosstalk(_P, _RAILS, [0.0, x]),
              DomainError, "^separations must be finite$"),
    _argument("scan_lifetime-delay",
              lambda x: harness.scan_lifetime(_P, _RAILS, 190.0, [0.4, x]), DomainError,
              "^delays must be positive, strictly ascending and finite in ns$"),
    *[_argument(f"fit_exponential-{i}", lambda x, i=i: harness.fit_exponential(
        [(0.4, 1.0), tuple(x if j == i else (0.8, 0.5)[j] for j in range(2)), (1.2, 0.3)]),
        harness.FitError, "^times and energies must be finite$") for i in range(2)],
    *[_argument(f"extrapolate_efficiency-{i}", lambda x, i=i: harness.extrapolate_efficiency(
        *[(x if j == i else (0.3, 0.4, 5.4)[j]) for j in range(3)]), DomainError,
        "^energy and lifetime must be strictly positive, read time non-negative$")
      for i in range(3)],
    _argument("weighted_mean-value", lambda x: harness.weighted_mean([1.0, x], [1.0, 1.0]),
              DomainError, "^values and sigmas must be finite$"),
    _argument("weighted_mean-sigma", lambda x: harness.weighted_mean([1.0, 2.0], [1.0, x]),
              DomainError, "^sigmas must be strictly positive$",
              infinite="^values and sigmas must be finite$"),
    _argument("monte_carlo_overlaps-n_atoms",
              lambda x: harness.monte_carlo_overlaps(_P, x, [(0.0, 0.4)], 1), DomainError,
              "^.+ atoms is not a whole number$", infinite="^.+ atoms are more than 10000000$"),
    _argument("monte_carlo_overlaps-d_um",
              lambda x: harness.monte_carlo_overlaps(_P, 1000, [(0.0, 0.4), (x, 0.4)], 1),
              DomainError, "^displacements and times must be finite$"),
    _argument("monte_carlo_overlaps-t_us",
              lambda x: harness.monte_carlo_overlaps(_P, 1000, [(0.0, x)], 1), DomainError,
              "^time must be non-negative$", infinite="^displacements and times must be finite$"),
    _argument("monte_carlo_overlap-d_um",
              lambda x: harness.monte_carlo_overlap(_P, 1000, x, 0.4, 1), DomainError,
              "^displacements and times must be finite$"),
]
# a rail is an identity, kept as given, and named by core._fmt_number. A
# Decimal sNaN cannot be hashed: a rail lookup names it nan, as it does a
# quiet NaN, and no Sequence holds one (see SEQUENCE_RAIL_ARGUMENTS)
NO_CALIBRATION = r"^rail .+ MHz has no calibration \(calibrated rails: 170, 190, 210, 230 MHz\)$"
RAIL_ARGUMENTS = [
    *[_argument(f"Memory.{method}-f_rail", lambda x, m=method: getattr(_fresh(), m)(x, 0.0),
                UnknownRailError, NO_CALIBRATION) for method in ("write", "read", "pump")],
    _argument("Memory.stored_on-f_rail", lambda x: _fresh().stored_on(x), UnknownRailError,
              NO_CALIBRATION),
    # the raw entry that apply and run_sequence's loop call
    *[_argument(f"Memory._op-{kind.value}-f_rail", lambda x, k=kind: _fresh()._op(0.0, k, x, 1.0),
                UnknownRailError, NO_CALIBRATION) for kind in OpKind],
    _argument("scan_lifetime-f_rail", lambda x: harness.scan_lifetime(_P, _RAILS, x, [0.4]),
              UnknownRailError, NO_CALIBRATION),
]
SEQUENCE_RAIL_ARGUMENTS = [
    _argument("Sequence-undeclared-f_rail",
              lambda x: Sequence("s", (190.0,), (Operation(0.0, OpKind.WRITE, x),)),
              UnknownRailError, "^operation at 0.0 ns uses undeclared rail .+ MHz$"),
    _argument("format_sequence-rail", lambda x: seqlang.format_sequence(Sequence("s", (x,), ())),
              ParamError, "^rail .+ is not a finite non-negative float$"),
]
HASHABLE = [v for v in NO_FLOAT_IN_RANGE if v[0] != "Decimal-sNaN"]


def _number_cases(arguments, values):
    return [pytest.param(call, error, infinite if is_inf else message, value,
                         id=f"{name}-{value_id}")
            for name, call, error, message, infinite in arguments
            for value_id, value, is_inf in values]


@pytest.mark.parametrize("call,error,message,value",
                         _number_cases(NUMBER_ARGUMENTS, NO_FLOAT_IN_RANGE)
                         + _number_cases(RAIL_ARGUMENTS, NO_FLOAT_IN_RANGE)
                         + _number_cases(SEQUENCE_RAIL_ARGUMENTS, HASHABLE))
def test_number_argument_refused_with_its_named_error(call, error, message, value):
    if message is False:  # the argument takes an infinity
        call(value)
        return
    with pytest.raises(error, match=message) as raised:
        call(value)
    assert type(raised.value) is error


SNAN = Decimal("sNaN")


@pytest.mark.parametrize("rails,ops", [
    pytest.param((SNAN,), (), id="declared"),
    pytest.param((190.0, SNAN), (), id="declared-second"),
    pytest.param((190.0,), (Operation(0.0, OpKind.WRITE, SNAN),), id="on-an-op"),
    pytest.param((SNAN, SNAN), (), id="declared-twice"),
])
def test_sequence_refuses_a_rail_that_cannot_be_hashed(rails, ops):
    with pytest.raises(ParamError, match="^sequence 's' has a rail that cannot be hashed, "
                                         "such as a Decimal sNaN$"):
        Sequence("s", rails, ops)


# a lower bound given to core._real, at a value just below it, where a
# later check in the same call would refuse it with another sentence
@pytest.mark.parametrize("call,message", [
    (lambda: physics.overlap_factor(270.0, -1.0, _P),
     "^variance must be finite and non-negative, and displacement finite$"),
    (lambda: harness.monte_carlo_overlaps(_P, 1000, [(0.0, -0.4)], 1),
     "^time must be non-negative$"),
], ids=["overlap_factor-variance", "monte_carlo_overlaps-time"])
def test_lower_bound_refused_with_its_sentence(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("rail", [pytest.param(v, id=i) for i, v, _ in HASHABLE])
def test_validate_reports_a_rail_no_float_is_and_measures_the_others(rail):
    # between the two it measures, where a NaN would split a sort
    diags = seqlang.validate(Sequence("s", (190.0, rail, 198.0), ()), _P)
    assert [(d.code, d.message) for d in diags] == [
        ("E002", f"rail {core._fmt_number(rail)} MHz outside deflector band [150, 250] MHz"),
        ("W001", "rails 190 and 198 MHz are separated by 8 MHz, below the cross-talk-free "
                 "20 MHz")]


def test_numbers_of_any_type_give_the_trace_of_their_floats():
    params = core.replace(_P, w_signal=Decimal("270"))
    assert params == _P and repr(params) == repr(_P)

    def program(energy):
        return Sequence("s", (190.0,), (Operation(0.0, OpKind.WRITE, 190.0, energy),
                                        Operation(Fraction(400), OpKind.READ, 190.0)))

    want = engine.run_sequence(_fresh(), program(0.5))
    got = engine.run_sequence(engine.Memory(params, _RAILS), program(Fraction(1, 2)))
    assert got == want and repr(got) == repr(want)
    # a Python-built event renders as its floats do
    t_ref, y_ref = engine.render_waveform(Trace((TraceEvent(100.0, OpKind.READ, 190.0, 0.5, 0.0),)),
                                          1.0)
    for event in (TraceEvent(Decimal("100"), OpKind.READ, 190.0, 0.5, 0.0),
                  TraceEvent(100.0, OpKind.READ, 190.0, Decimal("0.5"), 0.0)):
        t, y = engine.render_waveform(Trace((event,)), 1.0)
        assert t.tobytes() == t_ref.tobytes() and y.tobytes() == y_ref.tobytes()


class TestOperationAndSequence:
    def test_write_requires_positive_energy(self):
        with pytest.raises(ParamError):
            Operation(0.0, OpKind.WRITE, 190.0, energy=0.0)
        # reads ignore the value of their energy
        Operation(0.0, OpKind.READ, 190.0, energy=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ParamError):
            Operation(-1.0, OpKind.READ, 190.0)

    @pytest.mark.parametrize("kind", list(OpKind))
    @pytest.mark.parametrize("t_ns,energy", [
        (math.inf, 1.0), (math.nan, 1.0), (0.0, math.inf), (0.0, math.nan),
    ])
    def test_non_finite_time_or_energy_rejected(self, kind, t_ns, energy):
        with pytest.raises(ParamError, match="must be finite"):
            Operation(t_ns, kind, 190.0, energy)

    @pytest.mark.parametrize("args,line", [
        ((-1.0, OpKind.READ, 190.0), "AT -1ns READ 190MHz"),
        ((math.nan, OpKind.READ, 190.0), "AT nanns READ 190MHz"),
        ((0.0, OpKind.WRITE, 190.0, 0.0), "AT 0ns WRITE 190MHz 0"),
    ])
    def test_public_constructor_keeps_its_checks(self, args, line):
        # parse rejects each of these on the text, at its line and column:
        # its Reader checks what Operation checks, and it builds no Operation
        with pytest.raises(ParamError):
            Operation(*args)
        with pytest.raises(ParseError):
            parse(f"SEQUENCE s\nRAILS 190MHz\n{line}\n")

    @pytest.mark.parametrize("cls,field,value,message", PER_OP_REJECTIONS)
    def test_per_op_rejection_pinned(self, cls, field, value, message):
        kwargs = dict(PER_OP_ARGS[cls], **{field: value})
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            cls(**kwargs)

    def test_unsorted_ops_rejected(self):
        ops = (Operation(400.0, OpKind.WRITE, 190.0), Operation(0.0, OpKind.READ, 190.0))
        with pytest.raises(ParamError):
            Sequence("s", (190.0,), ops)

    def test_equal_times_rejected(self):
        ops = (Operation(400.0, OpKind.WRITE, 190.0), Operation(400.0, OpKind.READ, 190.0))
        with pytest.raises(ParamError):
            Sequence("s", (190.0,), ops)

    def test_undeclared_rail_rejected(self):
        with pytest.raises(UnknownRailError):
            Sequence("s", (190.0,), (Operation(0.0, OpKind.WRITE, 210.0),))

    # the sentence names an int past a float by its digits
    @pytest.mark.parametrize("rail,name", [
        (210.0, "210"), pytest.param(10**400, "1" + "0" * 400, id="10**400"),
        # past the 4300 digits that str() of an int prints
        pytest.param(10**5000, "1" + "0" * 5000, id="10**5000"),
        pytest.param(Fraction(10**5000), "1" + "0" * 5000, id="Fraction-10**5000"),
    ])
    def test_undeclared_rail_named(self, rail, name):
        with pytest.raises(UnknownRailError,
                           match=f"^operation at 0.0 ns uses undeclared rail {name} MHz$"):
            Sequence("s", (190.0,), (Operation(0.0, OpKind.WRITE, rail),))

    def test_duplicate_declared_rail_rejected(self):
        with pytest.raises(DuplicateRailError):
            Sequence("s", (190.0, 190.0), ())

    def test_empty_sequence_ok(self):
        assert Sequence("empty", (), ()).ops == ()

    def test_src_lines_ignored_by_equality(self):
        ops = (Operation(0.0, OpKind.WRITE, 190.0),)
        a = Sequence("s", (190.0,), ops, src_lines=(3,), rails_line=2)
        b = Sequence("s", (190.0,), ops)
        assert a == b
        assert hash(a) == hash(b)


class TestValueTypes:
    def test_component_invariants(self):
        # only the stored state: amplitude and birth time
        assert core.fields(SpinWaveComponent) == ("amplitude", "t_birth_ns")
        SpinWaveComponent(0.0, 0.0)
        with pytest.raises(ParamError):
            SpinWaveComponent(-0.1, 0.0)

    def test_trace_event_invariants(self):
        TraceEvent(0.0, OpKind.READ, 190.0, 0.0, 0.0)
        with pytest.raises(ParamError):
            TraceEvent(0.0, OpKind.READ, 190.0, -1e-9, 0.0)
        with pytest.raises(ParamError):
            TraceEvent(0.0, OpKind.READ, 190.0, 0.0, -1.0)

    @pytest.mark.parametrize("field,value", [
        ("out_energy", math.inf), ("out_energy", math.nan),
        ("stored_after", math.inf), ("stored_after", math.nan),
        ("t_ns", math.nan),
    ])
    def test_trace_event_non_finite_rejected(self, field, value):
        # render_waveform adds each pulse only near its centre, which needs
        # finite energies and a time that is a number
        kwargs = dict(t_ns=0.0, kind=OpKind.READ, f_rail=190.0, out_energy=0.5, stored_after=0.0)
        kwargs[field] = value
        with pytest.raises(ParamError):
            TraceEvent(**kwargs)

    def test_fit_result_invariants(self):
        FitResult(1.0, 3.3, 0.0, 0.0)
        with pytest.raises(ParamError):
            FitResult(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ParamError):
            FitResult(1.0, 3.3, 0.0, -1.0)

    @pytest.mark.parametrize("field", ["a0", "tau_us", "tau_err_us", "rss"])
    @pytest.mark.parametrize("value", NON_FINITE_VALUES)
    def test_fit_result_non_finite_rejected(self, field, value):
        kwargs = dict(a0=1.0, tau_us=3.3, tau_err_us=0.1, rss=0.0)
        kwargs[field] = value
        with pytest.raises(ParamError, match=f"{field} must be finite"):
            FitResult(**kwargs)


_WRITE = Operation(0.0, OpKind.WRITE, 190.0, 0.5)
_EVENT = TraceEvent(400.0, OpKind.READ, 190.0, 0.25, 0.0)
_PASS = CriterionCheck(0.5)
# each value type: its positional arguments, its repr, a valid change of a
# compared field, and a change its constructor rejects (None where it checks
# nothing)
VALUE_TYPES = [
    pytest.param(
        PhysicsParams,
        (0.24, 333.15, 5.0, 270.0, 350.0, 450.0, 4, 200.0, 50.0, 33.75, 48.0, 1.0),
        "PhysicsParams(d0=0.24, t_cell=333.15, p_buffer=5.0, w_signal=270.0, "
        "w_control=350.0, w_dep=450.0, m_dep=4, f_center=200.0, f_halfband=50.0, "
        "pos_per_mhz=33.75, t_switch=48.0, pump_fidelity=1.0)",
        ("d0", 0.25), ("t_switch", 0.0, ParamError), id="PhysicsParams"),
    pytest.param(
        RailCalibration, (190.0, 5.4, 0.7, 0.35),
        "RailCalibration(f_rail=190.0, tau_us=5.4, tau_err_us=0.7, eta_mem=0.35)",
        ("eta_mem", 0.36), ("eta_mem", 1.5, ParamError), id="RailCalibration"),
    pytest.param(
        SpinWaveComponent, (0.5, 400.0),
        "SpinWaveComponent(amplitude=0.5, t_birth_ns=400.0)",
        ("t_birth_ns", 800.0), ("amplitude", -0.1, ParamError), id="SpinWaveComponent"),
    pytest.param(
        Operation, (400.0, OpKind.READ, 190.0, 1.0),
        "Operation(t_ns=400.0, kind=<OpKind.READ: 'READ'>, f_rail=190.0, energy=1.0)",
        ("kind", OpKind.PUMP), ("t_ns", -1.0, ParamError), id="Operation"),
    pytest.param(
        Sequence, ("s", (190.0,), (_WRITE,), (3,), 2),
        "Sequence(name='s', rails=(190.0,), ops=(Operation(t_ns=0.0, "
        "kind=<OpKind.WRITE: 'WRITE'>, f_rail=190.0, energy=0.5),), src_lines=(3,), "
        "rails_line=2)",
        ("name", "t"), ("src_lines", (3, 4), ParamError), id="Sequence"),
    pytest.param(
        TraceEvent, (400.0, OpKind.READ, 190.0, 0.25, 0.0),
        "TraceEvent(t_ns=400.0, kind=<OpKind.READ: 'READ'>, f_rail=190.0, "
        "out_energy=0.25, stored_after=0.0)",
        ("stored_after", 0.1), ("out_energy", -1.0, ParamError), id="TraceEvent"),
    pytest.param(
        Trace, ((_EVENT,),),
        "Trace(events=(TraceEvent(t_ns=400.0, kind=<OpKind.READ: 'READ'>, f_rail=190.0, "
        "out_energy=0.25, stored_after=0.0),))",
        ("events", ()), None, id="Trace"),
    pytest.param(
        FitResult, (1.0, 3.3, 0.1, 0.0),
        "FitResult(a0=1.0, tau_us=3.3, tau_err_us=0.1, rss=0.0)",
        ("tau_err_us", 0.2), ("rss", -1.0, ParamError), id="FitResult"),
    pytest.param(
        ScanResult, ("delay_us", (0.4, 0.8), {"retrieved": (0.3, 0.2)}),
        "ScanResult(axis_name='delay_us', axis=(0.4, 0.8), series={'retrieved': (0.3, 0.2)})",
        ("axis_name", "t_us"), ("axis", (0.4,), DomainError), id="ScanResult"),
    pytest.param(
        CriterionCheck, (0.5,),
        "CriterionCheck(margin=0.5)",
        ("margin", 0.6), None, id="CriterionCheck"),
    pytest.param(
        CriteriaReport, (_PASS, CriterionCheck(2.0), _PASS),
        "CriteriaReport(interaction_free=CriterionCheck(margin=0.5), "
        "empty_state=CriterionCheck(margin=2.0), "
        "full_retrieval=CriterionCheck(margin=0.5))",
        ("full_retrieval", CriterionCheck(0.0)), None, id="CriteriaReport"),
    pytest.param(
        Diagnostic, ("E001", 4, "too close"),
        "Diagnostic(code='E001', line=4, message='too close')",
        ("line", 5), None, id="Diagnostic"),
]


@pytest.mark.parametrize("cls,args,text,change,bad", VALUE_TYPES)
class TestValueTypeContract:
    """What the value types kept from the frozen dataclasses they replaced."""

    def test_repr(self, cls, args, text, change, bad):
        assert repr(cls(*args)) == text

    def test_fields_cannot_be_assigned_or_deleted(self, cls, args, text, change, bad):
        value = cls(*args)
        for name in core.fields(cls):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = None
        assert repr(value) == text

    def test_equality_and_hash(self, cls, args, text, change, bad):
        value, same = cls(*args), cls(*args)
        assert value == same and not value != same
        assert value != core.replace(value, **dict([change]))
        assert value != args and value != object()
        if cls is ScanResult:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)  # its series is a dict
        else:
            assert hash(value) == hash(same)
            assert len({value, same}) == 1

    def test_copy_and_pickle_round_trips(self, cls, args, text, change, bad):
        value = cls(*args)
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is cls
            assert other == value and repr(other) == text

    def test_construction(self, cls, args, text, change, bad):
        names = core.fields(cls)
        assert core.fields(cls(*args)) == names and len(names) == len(args)
        kwargs = dict(zip(names, args))
        assert repr(cls(**kwargs)) == text
        assert repr(cls(*args[:1], **dict(list(kwargs.items())[1:]))) == text
        with pytest.raises(TypeError):
            cls(**dict(list(kwargs.items())[1:]))
        with pytest.raises(TypeError):
            cls(*args, not_a_field=None)
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            core.replace(cls(*args), not_a_field=None)

    def test_replace_runs_the_constructor_checks(self, cls, args, text, change, bad):
        value = cls(*args)
        assert repr(core.replace(value)) == text
        changed = core.replace(value, **dict([change]))
        assert getattr(changed, change[0]) == change[1]
        assert repr(value) == text
        if bad is not None:
            name, bad_value, error = bad
            with pytest.raises(error):
                core.replace(value, **{name: bad_value})


def _round_trips(value):
    """Copies of a value by copy, deepcopy and pickle at every protocol."""
    return [copy.copy(value), copy.deepcopy(value)] + [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]


class TestColumnBuiltValues:
    """parse and run_sequence build their Sequence and Trace from columns, with no
    Operation or TraceEvent; each is the value the public constructor gives."""

    def parsed(self):
        return parse(seqlang.format_sequence(harness.random_access_sequence()))

    def test_parsed_sequence_is_the_constructed_one(self):
        built = harness.random_access_sequence()
        seq = self.parsed()
        assert seq == built and hash(seq) == hash(built)
        assert seq.t_ns == tuple(op.t_ns for op in built.ops)
        assert seq.energy == tuple(op.energy for op in built.ops)
        same = Sequence(built.name, built.rails, built.ops, seq.src_lines, seq.rails_line)
        assert repr(seq) == repr(same)
        assert seq.ops == built.ops and seq.ops is seq.ops  # built once, then kept
        for other in _round_trips(self.parsed()):
            assert type(other) is Sequence and other == seq and repr(other) == repr(same)

    def test_run_trace_is_the_constructed_one(self):
        trace = engine.run_sequence(_fresh(), self.parsed())
        built = Trace(tuple(engine.run_sequence(_fresh(), harness.random_access_sequence())))
        assert trace == built and hash(trace) == hash(built) and len(trace) == 12
        assert trace.out_energy == array("d", [ev.out_energy for ev in built.events])
        assert trace.kind == tuple(ev.kind for ev in built.events)
        text = repr(built)
        for other in _round_trips(engine.run_sequence(_fresh(), self.parsed())):
            assert type(other) is Trace and other == trace and repr(other) == text
        assert repr(trace) == text and list(trace) == list(built.events)
        assert trace.events is trace.events  # built once, then kept

    def test_columns_compare_as_the_events_did(self):
        event = TraceEvent(0.0, OpKind.READ, 190.0, 0.0, 0.0)
        signed = TraceEvent(-0.0, OpKind.READ, 190.0, 0.0, -0.0)
        assert Trace((event,)) == Trace((signed,)) and event == signed
        assert hash(Trace((event,))) == hash(Trace((signed,)))
        assert Trace((event,)) != Trace((event, event)) != Trace(())
        assert Trace((event,)) != Trace((TraceEvent(0.0, OpKind.PUMP, 190.0, 0.0, 0.0),))


class TestValueTypeDefaults:
    def test_operation_energy_defaults_to_one(self):
        assert Operation(400.0, OpKind.READ, 190.0) == Operation(400.0, OpKind.READ, 190.0, 1.0)
        assert Operation(400.0, OpKind.READ, 190.0).energy == 1.0

    @pytest.mark.parametrize("kind", [OpKind.READ, OpKind.PUMP])
    def test_ignored_energy_is_stored_as_the_default(self, kind):
        # a read or pump ignores its energy, so equality ignores it too
        assert Operation(400.0, kind, 190.0, 5.0).energy == 1.0
        assert Operation(400.0, kind, 190.0, -5.0) == Operation(400.0, kind, 190.0)

    def test_sequence_source_lines_default_to_none(self):
        plain = Sequence("s", (190.0,), (_WRITE,))
        assert plain.src_lines is None and plain.rails_line is None
