import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from vapormem.core import (
    DuplicateRailError,
    FitResult,
    OpKind,
    Operation,
    ParamError,
    PhysicsParams,
    RailCalibration,
    Sequence,
    SpinWaveComponent,
    TraceEvent,
    UnknownRailError,
    default_params,
    default_rails,
)


class TestDefaultParams:
    def test_calibrated_values(self):
        p = default_params()
        assert p.d0 == 0.24
        assert p.t0 == 273.15
        assert p.p0 == 760.0
        assert p.t_cell == 333.15
        assert p.p_buffer == 5.0
        assert p.w_signal == 270.0
        assert p.w_control == 350.0
        assert p.f_center == 200.0
        assert p.f_halfband == 50.0
        assert p.edge_loss == 0.25
        assert p.t_switch == 48.0
        assert p.pump_fidelity == 1.0

    def test_lateral_calibration_is_one_radius_per_8mhz(self):
        p = default_params()
        assert p.pos_per_mhz == pytest.approx(270.0 / 8.0)
        assert p.pos_per_mhz == 33.75

    def test_sigma0_is_half_signal_radius(self):
        p = default_params()
        assert p.sigma0 == p.w_signal / 2.0 == 135.0

    def test_bit_stable_across_calls(self):
        assert default_params() == default_params()
        assert default_rails() == default_rails()

    def test_band(self):
        p = default_params()
        assert p.band == (150.0, 250.0)
        assert p.in_band(150.0) and p.in_band(250.0)
        assert not p.in_band(149.999) and not p.in_band(250.001)

    @pytest.mark.parametrize("field,value", [
        ("d0", 0.0), ("d0", -1.0), ("t0", 0.0), ("p_buffer", -5.0),
        ("w_signal", 0.0), ("w_control", -1.0), ("sigma0", 0.0),
        ("sigma0", 1e-200), ("sigma0", 1e200),
        ("w_dep", 0.0), ("m_dep", 0), ("f_halfband", 0.0),
        ("edge_loss", -0.1), ("edge_loss", 1.0), ("t_switch", 0.0),
        ("pump_fidelity", -0.1), ("pump_fidelity", 1.1), ("pos_per_mhz", 0.0),
    ])
    def test_invariants_rejected(self, field, value):
        with pytest.raises(ParamError):
            dataclasses.replace(default_params(), **{field: value})

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PhysicsParams)])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ParamError, match=f"^{field} must be finite$"):
            dataclasses.replace(default_params(), **{field: value})

    def test_order_too_large_for_a_float_rejected(self):
        with pytest.raises(ParamError, match="^m_dep must be finite$"):
            dataclasses.replace(default_params(), m_dep=10 ** 400)


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
        assert [f.name for f in dataclasses.fields(cal)] == [
            "f_rail", "tau_us", "tau_err_us", "eta_mem"]

    @pytest.mark.parametrize("kwargs", [
        dict(tau_us=0.0), dict(tau_us=-1.0), dict(eta_mem=0.0), dict(eta_mem=1.5),
    ])
    def test_bad_values_rejected(self, kwargs):
        base = dict(f_rail=190.0, tau_us=5.4, tau_err_us=0.7, eta_mem=0.35)
        base.update(kwargs)
        with pytest.raises(ParamError):
            RailCalibration(**base)

    @pytest.mark.parametrize("field", ["f_rail", "tau_us", "tau_err_us", "eta_mem"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        base = dict(f_rail=190.0, tau_us=5.4, tau_err_us=0.7, eta_mem=0.35)
        base[field] = value
        with pytest.raises(ParamError, match=f"^{field} must be finite$"):
            RailCalibration(**base)


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

    def test_duplicate_declared_rail_rejected(self):
        with pytest.raises(DuplicateRailError):
            Sequence("s", (190.0, 190.0), ())

    def test_empty_sequence_ok(self):
        seq = Sequence("empty", (), ())
        assert seq.span_ns == 0.0

    def test_src_lines_ignored_by_equality(self):
        ops = (Operation(0.0, OpKind.WRITE, 190.0),)
        a = Sequence("s", (190.0,), ops, src_lines=(3,), rails_line=2)
        b = Sequence("s", (190.0,), ops)
        assert a == b


class TestValueTypes:
    def test_component_invariants(self):
        SpinWaveComponent(0.5, 0.0, 18225.0, 0.0, 5.4)
        with pytest.raises(ParamError):
            SpinWaveComponent(-0.1, 0.0, 18225.0, 0.0, 5.4)
        with pytest.raises(ParamError):
            SpinWaveComponent(0.5, 0.0, 0.0, 0.0, 5.4)

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
