import math

import pytest
from hypothesis import given, strategies as st
from scipy.integrate import dblquad

from vapormem import core, engine
from vapormem.core import (
    DomainError,
    OutOfBandError,
    ParamError,
    default_params,
    default_rails,
)
from vapormem.physics import (
    P_REF_TORR,
    T_REF_K,
    aod_efficiency,
    depletion_fraction,
    diffusion_coefficient,
    overlap_factor,
    rail_position_um,
    read_sampling_variance_um2,
    spread_variance_um2,
    transit_time_us,
)

P = default_params()
RAILS = default_rails()
D_DEFAULT = 49.13746514719544  # d0 * (760/5) * (333.15/273.15)^1.5


def overlap_quadrature(d, s2, v):
    """Independent oracle: 2D integral of the stored Gaussian times the
    displaced read sampling weight, normalized to the coaxial value."""
    def num(y, x):
        return math.exp(-(x * x + y * y) / (2 * s2)) * \
            math.exp(-(((x - d) ** 2) + y * y) / (2 * v))

    def den(y, x):
        return math.exp(-(x * x + y * y) / (2 * s2)) * \
            math.exp(-((x * x) + y * y) / (2 * v))

    lim = 6.0 * math.sqrt(s2) + abs(d)
    a, _ = dblquad(num, -lim, lim, -lim, lim, epsabs=1e-13, epsrel=1e-11)
    b, _ = dblquad(den, -lim, lim, -lim, lim, epsabs=1e-13, epsrel=1e-11)
    return a / b


class TestDiffusion:
    def test_reference_conditions_return_d0_exactly(self):
        p = core.replace(P, t_cell=T_REF_K, p_buffer=P_REF_TORR)
        assert diffusion_coefficient(p) == 0.24

    def test_default_cell_conditions(self):
        assert diffusion_coefficient(P) == pytest.approx(D_DEFAULT, rel=1e-14)

    def test_matches_inverted_transit_relation_within_2pct(self):
        # oracle: the D for which 270 um is covered in 3.7 us
        d_oracle = (270e-4) ** 2 / (4 * 3.7e-6)
        assert diffusion_coefficient(P) == pytest.approx(d_oracle, rel=0.02)

    def test_double_pressure_halves_d(self):
        p = core.replace(P, t_cell=T_REF_K, p_buffer=2 * P_REF_TORR)
        assert diffusion_coefficient(p) == pytest.approx(0.12, rel=1e-14)

    # (t_cell/T_REF_K)^1.5 overflows; D is finite but 2 D in um^2/us is not; D overflows
    @pytest.mark.parametrize("change", [{"t_cell": 1e308}, {"p_buffer": 1e-304}, {"d0": 1e306}])
    def test_overflow_is_a_domain_error(self, change):
        with pytest.raises(DomainError, match="diffusion coefficient"):
            diffusion_coefficient(core.replace(P, **change))


class TestTransitTime:
    def test_one_signal_radius(self):
        t = transit_time_us(270.0, diffusion_coefficient(P))
        assert t == pytest.approx(3.7, abs=0.1)
        assert t == pytest.approx(3.7089825340817777, rel=1e-13)

    def test_quadratic_in_distance(self):
        d = diffusion_coefficient(P)
        assert transit_time_us(540.0, d) == pytest.approx(4 * transit_time_us(270.0, d), rel=1e-12)

    def test_inverse_in_diffusion(self):
        d = diffusion_coefficient(P)
        assert transit_time_us(270.0, 2 * d) == pytest.approx(
            transit_time_us(270.0, d) / 2, rel=1e-12)

    @pytest.mark.parametrize("dx,dd", [(0.0, 1.0), (-1.0, 1.0), (270.0, 0.0), (270.0, -1.0),
                                       (math.inf, 1.0), (1.0, math.inf),
                                       # 4 D overflows, dx² overflows, dx² underflows
                                       (1.0, 1e307), (1e200, 1.0), (1e-200, 1.0)])
    def test_domain(self, dx, dd):
        with pytest.raises(DomainError):
            transit_time_us(dx, dd)

    @pytest.mark.parametrize("dx,dd", [(math.nan, 1.0), (270.0, math.nan)])
    def test_nan_is_a_domain_error(self, dx, dd):
        with pytest.raises(DomainError):
            transit_time_us(dx, dd)


class TestRailPosition:
    def test_band_center_is_origin(self):
        assert rail_position_um(200.0, P) == 0.0

    def test_8mhz_is_one_signal_radius(self):
        assert rail_position_um(208.0, P) == pytest.approx(270.0, rel=1e-14)

    def test_linear_below_center(self):
        assert rail_position_um(190.0, P) == pytest.approx(-337.5, rel=1e-14)

    @pytest.mark.parametrize("f", [149.9, 250.1, 0.0, 500.0,
                                   pytest.param(10**400, id="10**400")])
    def test_out_of_band(self, f):
        # an int past a float is named by its digits
        with pytest.raises(OutOfBandError, match=r"^rail [0-9.]+ MHz outside deflector band"):
            rail_position_um(f, P)

    def test_overflowing_position_rejected(self):
        p = core.replace(P, pos_per_mhz=1e307)
        assert rail_position_um(190.0, p) == -1e308
        with pytest.raises(DomainError, match="beam position of rail 230 MHz"):
            rail_position_um(230.0, p)


class TestAodEfficiency:
    def test_center_is_unity(self):
        assert aod_efficiency(200.0, P) == 1.0

    def test_edge_loss(self):
        assert aod_efficiency(250.0, P) == pytest.approx(0.75, rel=1e-14)
        assert aod_efficiency(150.0, P) == pytest.approx(0.75, rel=1e-14)

    def test_half_band(self):
        assert aod_efficiency(225.0, P) == pytest.approx(0.9375, rel=1e-14)

    def test_out_of_band(self):
        with pytest.raises(OutOfBandError):
            aod_efficiency(251.0, P)


class TestSpreadVariance:
    def test_zero_time_is_identity(self):
        assert spread_variance_um2(18225.0, 0.0, 12.3) == 18225.0

    def test_one_microsecond_growth(self):
        # 2 * 49.1 cm^2/s = 9820 um^2/us
        assert spread_variance_um2(18225.0, 1.0, 49.1) == pytest.approx(28045.0, rel=1e-12)

    def test_delta_function_start(self):
        assert spread_variance_um2(0.0, 2.0, 10.0) == pytest.approx(4000.0, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            spread_variance_um2(18225.0, -0.1, 49.1)
        with pytest.raises(DomainError, match="variance must be non-negative"):
            spread_variance_um2(-1.0, 0.1, 49.1)

    def test_overflow_rejected(self):
        with pytest.raises(DomainError, match="spread variance"):
            spread_variance_um2(18225.0, 1e306, 49.1)

    @given(s2=st.floats(0.0, 1e6), t1=st.floats(0.0, 20.0), t2=st.floats(0.0, 20.0))
    def test_additivity(self, s2, t1, t2):
        d = D_DEFAULT
        split = spread_variance_um2(spread_variance_um2(s2, t1, d), t2, d)
        joint = spread_variance_um2(s2, t1 + t2, d)
        assert split == pytest.approx(joint, rel=1e-12, abs=1e-9)


class TestOverlap:
    S2_04 = 22155.997211775637  # sigma0^2 after 0.4 us at default D

    def test_coaxial_is_unity(self):
        for s2 in (0.0, 18225.0, 1e6):
            assert overlap_factor(0.0, s2, P) == 1.0

    def test_matches_quadrature_oracle(self):
        v = read_sampling_variance_um2(P)
        for d in (270.0, 675.0, 1000.0):
            assert overlap_factor(d, self.S2_04, P) == pytest.approx(
                overlap_quadrature(d, self.S2_04, v), abs=1e-6)

    def test_frozen_values(self):
        assert overlap_factor(270.0, self.S2_04, P) == pytest.approx(
            0.3377612918732103, rel=1e-12)
        assert overlap_factor(675.0, self.S2_04, P) == pytest.approx(
            0.0011319095696086738, rel=1e-12)

    @given(d1=st.floats(1.0, 3000.0), scale=st.floats(1.01, 10.0), s2=st.floats(0.0, 1e6))
    def test_strictly_decreasing_in_distance(self, d1, scale, s2):
        assert overlap_factor(d1 * scale, s2, P) < overlap_factor(d1, s2, P)

    @given(d=st.floats(1.0, 3000.0), s2=st.floats(0.0, 1e6), ds=st.floats(1.0, 1e5))
    def test_strictly_increasing_in_variance_off_axis(self, d, s2, ds):
        # a spreading component reaches a displaced read beam more, not less
        assert overlap_factor(d, s2 + ds, P) > overlap_factor(d, s2, P)

    @pytest.mark.parametrize("d,s2", [(math.nan, 18225.0), (270.0, math.nan)])
    def test_nan_is_a_domain_error(self, d, s2):
        with pytest.raises(DomainError):
            overlap_factor(d, s2, P)

    def test_unity_only_on_axis(self):
        assert overlap_factor(1e-3, 18225.0, P) < 1.0

    def test_sampling_variance_combines_both_beams(self):
        v_c = (P.w_control / 2.0) ** 2
        v_s = (P.w_signal / 2.0) ** 2
        assert read_sampling_variance_um2(P) == pytest.approx(
            v_c * v_s / (v_c + v_s), rel=1e-14)

    # the product of the two squares overflows; (w_control/2)^2 overflows; both
    # squares are finite but their product and sum are not. A w_signal whose
    # square overflows is rejected by PhysicsParams, as sigma0² is.
    @pytest.mark.parametrize("change", [{"w_control": 2e154}, {"w_control": 1e308},
                                        {"w_signal": 2e154, "w_control": 2e154}])
    def test_sampling_variance_overflow_rejected(self, change):
        with pytest.raises(DomainError, match="read sampling variance"):
            read_sampling_variance_um2(core.replace(P, **change))


class TestDepletion:
    def test_on_rail_is_total(self):
        assert depletion_fraction(0.0, P) == 1.0

    def test_one_signal_radius_nearly_total(self):
        # full depletion at separations up to 8 MHz (one signal radius)
        val = depletion_fraction(270.0, P)
        assert val == pytest.approx(0.9833441090701501, rel=1e-12)
        assert val > 0.95

    def test_20mhz_separation_negligible(self):
        # no influence on a rail 20 MHz away
        val = depletion_fraction(675.0, P)
        assert val == pytest.approx(7.404699497933558e-12, rel=1e-12)
        assert val <= 1e-2

    def test_symmetric(self):
        assert depletion_fraction(-270.0, P) == depletion_fraction(270.0, P)

    def test_nan_is_a_domain_error(self):
        with pytest.raises(DomainError, match="NaN"):
            depletion_fraction(math.nan, P)

    @given(d=st.floats(50.0, 500.0), scale=st.floats(1.01, 2.0))
    def test_strictly_decreasing(self, d, scale):
        # restricted to the span where the kernel is resolvable in floats:
        # below ~5 um it rounds to 1.0, beyond ~1030 um it underflows to 0.0
        assert depletion_fraction(d * scale, P) < depletion_fraction(d, P)

    @given(d=st.floats(0.0, 5000.0), scale=st.floats(1.0, 10.0))
    def test_non_increasing_everywhere(self, d, scale):
        assert depletion_fraction(d * scale, P) <= depletion_fraction(d, P)

    @given(d=st.floats(675.0, 1e5))
    def test_negligible_beyond_20mhz(self, d):
        assert depletion_fraction(d, P) <= 1e-2

    @pytest.mark.parametrize("m_dep", [10 ** 6, pytest.param(10 ** 308, id="1e308")])
    def test_high_order_is_a_step(self, m_dep):
        # (d/w_dep)^(2 m_dep) overflows a float beyond w_dep (and 2 * 10**308
        # is beyond a float); the kernel is then exp(-huge) = 0.0
        p = core.replace(P, m_dep=m_dep)
        assert depletion_fraction(0.0, p) == 1.0
        assert depletion_fraction(0.999 * P.w_dep, p) == 1.0
        assert depletion_fraction(P.w_dep, p) == math.exp(-1.0)
        assert depletion_fraction(1.001 * P.w_dep, p) == 0.0
        assert depletion_fraction(675.0, p) == 0.0


class TestTemporalDecay:
    """The storage decay exp(-age / tau) that a read applies to each component.

    It is computed in engine.Memory's read, so these read a memory: on its
    own rail a component's overlap is exactly 1, and a read returns
    amplitude * eta_read * decay.
    """

    @staticmethod
    def on_rail(cal, energy, t_read_ns):
        """What a read at t_read_ns returns of a write at 0, over amplitude * eta_read."""
        mem = engine.Memory(P, [cal])
        mem.write(cal.f_rail, 0.0, energy)
        full = mem.stored_on(cal.f_rail) * cal.eta_read
        return mem.read(cal.f_rail, t_read_ns) / full

    def test_identity_at_zero_delay(self):
        assert self.on_rail(RAILS[1], 0.73, 0.0) == 1.0

    def test_one_lifetime_gives_1_over_e(self):
        assert self.on_rail(RAILS[1], 1.0, 5400.0) == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_rail_230_at_late_read(self):
        assert self.on_rail(RAILS[3], 1.0, 4400.0) == pytest.approx(0.18409420065330417,
                                                                    rel=1e-12)

    @given(a=st.floats(1e-3, 10.0), t1=st.floats(0.0, 20.0), t2=st.floats(0.0, 20.0),
           tau=st.floats(0.1, 50.0))
    def test_composition(self, a, t1, t2, tau):
        # a pump on 230 MHz at t1, 2025 um from 170 MHz, moves the clock and
        # depletes nothing; the read at t1 + t2 decays by both steps
        cal = core.replace(RAILS[0], tau_us=tau)
        mem = engine.Memory(P, [cal, RAILS[3]])
        mem.write(170.0, 0.0, a)
        full = mem.stored_on(170.0) * cal.eta_read
        mem.pump(230.0, t1 * 1000.0)
        twice = full * math.exp(-t1 / tau) * math.exp(-t2 / tau)
        assert mem.read(170.0, (t1 + t2) * 1000.0) == pytest.approx(twice, rel=1e-12, abs=1e-300)

    def test_domain(self):
        # decay takes its lifetime from a calibration and its age from the
        # clock, and each refuses what exp(-age / tau) could not take
        for tau in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParamError, match="tau_us"):
                core.replace(RAILS[1], tau_us=tau)
        mem = engine.Memory(P, RAILS)
        mem.write(190.0, 0.0, 1.0)
        stored = mem.stored_on(190.0)
        for t_read in (-0.1, math.nan, math.inf):
            with pytest.raises(ParamError, match="time must be finite and non-negative"):
                mem.read(190.0, t_read)
            assert (mem.t_now_ns, mem.stored_on(190.0)) == (0.0, stored)
