"""Pure functions for diffusion, beam steering, overlap and depletion.

All functions are free of state and side effects. Units follow the
package convention (µm, µs, MHz, cm²/s); conversions are done internally,
in particular 1 cm²/s = 100 µm²/µs for the variance growth.
"""

from __future__ import annotations

import math

from .core import _POSITIVE, DomainError, OutOfBandError, PhysicsParams, _fmt_number, _real

# variance growth conversion: 1 cm^2/s = 1e8 um^2/s = 100 um^2/us
_CM2_PER_S_TO_UM2_PER_US = 100.0
# d0's reference conditions, 0 °C and 760 torr (Firstenberg et al., RMP 85, 941 (2013))
T_REF_K = 273.15
P_REF_TORR = 760.0
# the deflector's fractional diffraction-efficiency loss at the band edges
AOD_EDGE_LOSS = 0.25


def diffusion_coefficient(p: PhysicsParams) -> float:
    """Diffusion coefficient under cell conditions, cm²/s.

    Scales d0 inversely with buffer pressure and with temperature to the
    3/2 power: D = d0 * (P_REF_TORR / p_buffer) * (t_cell / T_REF_K)^1.5
    Raises DomainError when D, or the variance growth rate 2 D it sets, is
    not a finite float.
    """
    try:
        diff = p.d0 * (P_REF_TORR / p.p_buffer) * (p.t_cell / T_REF_K) ** 1.5
    except OverflowError:
        diff = math.inf
    _real(2.0 * diff * _CM2_PER_S_TO_UM2_PER_US, DomainError,
          "diffusion coefficient D and its variance growth 2 D must be finite floats")
    return diff


def transit_time_us(delta_x_um: float, d_cm2_s: float) -> float:
    """Time for an atom to diffuse a distance delta_x, in µs.

    Inverts the 2D diffusion length relation delta_x = sqrt(4 D t). Raises
    DomainError when the time is not a finite positive float.
    """
    dx, d = (_real(v, DomainError, "distance and diffusion coefficient must be finite and "
                   "positive", _POSITIVE) for v in (delta_x_um, d_cm2_s))
    # um^2 / (um^2/us): 4*D in um^2/us is 4*D*100
    t = dx * dx / (4.0 * d * _CM2_PER_S_TO_UM2_PER_US)
    return _real(t, DomainError, "transit time must be a finite positive float", _POSITIVE)


def _require_in_band(f_mhz: float, p: PhysicsParams) -> float:
    """The one band check: a rail's float, or OutOfBandError, in E002's words, outside the band."""
    lo, hi = p.f_center - p.f_halfband, p.f_center + p.f_halfband
    return _real(f_mhz, OutOfBandError, f"rail {_fmt_number(f_mhz)} MHz outside deflector band "
                 f"[{_fmt_number(lo)}, {_fmt_number(hi)}] MHz", lo, hi)


def rail_position_um(f_mhz: float, p: PhysicsParams) -> float:
    """Lateral beam position for a drive frequency; band center maps to 0.

    Raises OutOfBandError for a frequency outside the deflector band and
    DomainError for a position that is not a finite float.
    """
    x = (_require_in_band(f_mhz, p) - p.f_center) * p.pos_per_mhz
    return _real(x, DomainError, f"beam position of rail {_fmt_number(f_mhz)} MHz must be a "
                 "finite float")


def aod_efficiency(f_mhz: float, p: PhysicsParams) -> float:
    """Relative diffraction efficiency of the deflector at a drive frequency.

    Parabolic roll-off from 1 at band center down to 1 - AOD_EDGE_LOSS at
    the band edges. Not folded into the storage model, nor a parameter: the
    measured per-rail efficiencies already include it.
    """
    x = (_require_in_band(f_mhz, p) - p.f_center) / p.f_halfband
    return 1.0 - AOD_EDGE_LOSS * x * x


def spread_variance_um2(s2_um2: float, dt_us: float, d_cm2_s: float) -> float:
    """Per-axis Gaussian variance after dt of free diffusion: s2 + 2 D dt."""
    message = "spread variance must be a finite float"
    s2, dt, d = (_real(v, DomainError, message) for v in (s2_um2, dt_us, d_cm2_s))
    if s2 < 0.0:
        raise DomainError("variance must be non-negative")
    if dt < 0.0:
        raise DomainError("elapsed time must be non-negative")
    return _real(_spread(s2, dt, d), DomainError, message)


def _spread(s2_um2: float, dt_us: float, d_cm2_s: float) -> float:
    """spread_variance_um2 unchecked: inf once the variance passes a float.

    ``_overlap`` of an inf variance at a finite d² is 1.0, the limit of an
    ever wider Gaussian.
    """
    return s2_um2 + 2.0 * d_cm2_s * _CM2_PER_S_TO_UM2_PER_US * dt_us


def read_sampling_variance_um2(p: PhysicsParams) -> float:
    """Per-axis variance of the Gaussian weight a read samples a component with.

    Retrieval is driven by the control beam and the retrieved light is
    detected in the signal mode, so the sampling weight is the product of
    both intensity profiles; per axis the variances (w/2)² combine
    harmonically, the signal's being sigma0². Raises DomainError when that
    arithmetic overflows.
    """
    try:
        v_control = (p.w_control / 2.0) ** 2
        v_signal = p.sigma0 ** 2
        v = v_control * v_signal / (v_control + v_signal)
    except OverflowError:
        v = math.inf
    return _real(v, DomainError,
                 "read sampling variance from w_signal and w_control must be a finite float")


def overlap_factor(d_um: float, s2_um2: float, p: PhysicsParams) -> float:
    """Sampling weight of a read displaced by d from a stored component.

    Normalized to the coaxial value at the same variance:
    chi = exp(-d² / (2 (s2 + v))) with v the read sampling variance.
    Equals 1 iff d = 0; grows toward 1 with s2 for fixed d != 0 as the
    spreading component reaches the displaced read beam.
    """
    message = "variance must be finite and non-negative, and displacement finite"
    s2 = _real(s2_um2, DomainError, message, 0.0)
    return _overlap(_real(d_um, DomainError, message), s2, read_sampling_variance_um2(p))


def _overlap(d_um: float, s2_um2: float, v_um2: float) -> float:
    """overlap_factor for a read sampling variance v computed once by the caller.

    The caller owns overlap_factor's check that s2 is non-negative.
    """
    return math.exp(-(d_um * d_um) / (2.0 * (s2_um2 + v_um2)))


def depletion_fraction(d_um: float, p: PhysicsParams) -> float:
    """Fraction of a stored component destroyed by a control pulse at distance d.

    Super-Gaussian kernel exp(-(|d|/w_dep)^(2 m_dep)). The strong control
    field destroys coherence over a wider, flatter region than it
    efficiently retrieves from, which is why this kernel is separate from
    (and much flatter than) the retrieval overlap. Beyond w_dep a high
    order makes the power overflow a float, and exp(-huge) is 0.0.
    """
    x = abs(_real(d_um, DomainError, "distance must be finite, not NaN or infinite")) / p.w_dep
    # a float exponent is inf, not an error, when 2 * m_dep is beyond a float
    try:
        return math.exp(-(x ** (2.0 * p.m_dep)))
    except OverflowError:
        return 0.0

