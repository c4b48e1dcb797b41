import copy
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vapormem import core, physics
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
        # parse rejects each of these on the text, at its line and column,
        # before it builds the op with Operation(...)
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
