import dataclasses
import math

import pytest
from hypothesis import given, strategies as st
from scipy.integrate import dblquad

from vapormem.core import DomainError, OutOfBandError, default_params
from vapormem.physics import (
    aod_efficiency,
    depletion_fraction,
    diffusion_coefficient,
    overlap_factor,
    rail_position_um,
    read_sampling_variance_um2,
    spread_variance_um2,
    temporal_decay,
    transit_time_us,
)

P = default_params()
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
        p = dataclasses.replace(P, t_cell=P.t0, p_buffer=P.p0)
        assert diffusion_coefficient(p) == 0.24

    def test_default_cell_conditions(self):
        assert diffusion_coefficient(P) == pytest.approx(D_DEFAULT, rel=1e-14)

    def test_matches_inverted_transit_relation_within_2pct(self):
        # oracle: the D for which 270 um is covered in 3.7 us
        d_oracle = (270e-4) ** 2 / (4 * 3.7e-6)
        assert diffusion_coefficient(P) == pytest.approx(d_oracle, rel=0.02)

    def test_double_pressure_halves_d(self):
        p = dataclasses.replace(P, t_cell=P.t0, p_buffer=2 * P.p0)
        assert diffusion_coefficient(p) == pytest.approx(0.12, rel=1e-14)


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

    @pytest.mark.parametrize("dx,dd", [(0.0, 1.0), (-1.0, 1.0), (270.0, 0.0), (270.0, -1.0)])
    def test_domain(self, dx, dd):
        with pytest.raises(DomainError):
            transit_time_us(dx, dd)


class TestRailPosition:
    def test_band_center_is_origin(self):
        assert rail_position_um(200.0, P) == 0.0

    def test_8mhz_is_one_signal_radius(self):
        assert rail_position_um(208.0, P) == pytest.approx(270.0, rel=1e-14)

    def test_linear_below_center(self):
        assert rail_position_um(190.0, P) == pytest.approx(-337.5, rel=1e-14)

    @pytest.mark.parametrize("f", [149.9, 250.1, 0.0, 500.0])
    def test_out_of_band(self, f):
        with pytest.raises(OutOfBandError):
            rail_position_um(f, P)


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

    def test_unity_only_on_axis(self):
        assert overlap_factor(1e-3, 18225.0, P) < 1.0

    def test_sampling_variance_combines_both_beams(self):
        v_c = (P.w_control / 2.0) ** 2
        v_s = (P.w_signal / 2.0) ** 2
        assert read_sampling_variance_um2(P) == pytest.approx(
            v_c * v_s / (v_c + v_s), rel=1e-14)


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
        p = dataclasses.replace(P, m_dep=m_dep)
        assert depletion_fraction(0.0, p) == 1.0
        assert depletion_fraction(0.999 * P.w_dep, p) == 1.0
        assert depletion_fraction(P.w_dep, p) == math.exp(-1.0)
        assert depletion_fraction(1.001 * P.w_dep, p) == 0.0
        assert depletion_fraction(675.0, p) == 0.0


class TestTemporalDecay:
    def test_identity_at_zero_delay(self):
        assert temporal_decay(0.73, 0.0, 3.2) == 0.73

    def test_one_lifetime_gives_1_over_e(self):
        assert temporal_decay(1.0, 3.2, 3.2) == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_rail_230_at_late_read(self):
        assert temporal_decay(1.0, 4.4, 2.6) == pytest.approx(0.18409420065330417, rel=1e-12)

    @given(a=st.floats(0.0, 10.0), t1=st.floats(0.0, 20.0), t2=st.floats(0.0, 20.0),
           tau=st.floats(0.1, 50.0))
    def test_composition(self, a, t1, t2, tau):
        twice = temporal_decay(temporal_decay(a, t1, tau), t2, tau)
        once = temporal_decay(a, t1 + t2, tau)
        assert twice == pytest.approx(once, rel=1e-12, abs=1e-300)

    def test_domain(self):
        with pytest.raises(DomainError):
            temporal_decay(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            temporal_decay(1.0, -0.1, 3.2)
