"""Pure functions for diffusion, beam steering, overlap and depletion.

All functions are free of state and side effects. Units follow the
package convention (µm, µs, MHz, cm²/s); conversions are done internally,
in particular 1 cm²/s = 100 µm²/µs for the variance growth.
"""

from __future__ import annotations

import math

from .core import DomainError, OutOfBandError, PhysicsParams

# variance growth conversion: 1 cm^2/s = 1e8 um^2/s = 100 um^2/us
_CM2_PER_S_TO_UM2_PER_US = 100.0


def diffusion_coefficient(p: PhysicsParams) -> float:
    """Diffusion coefficient under cell conditions, cm²/s.

    Scales the reference value inversely with buffer pressure and with
    temperature to the 3/2 power:  D = d0 * (p0/p_buffer) * (t_cell/t0)^1.5
    """
    if p.t0 <= 0.0 or p.p_buffer <= 0.0:
        raise DomainError("reference temperature and buffer pressure must be positive")
    return p.d0 * (p.p0 / p.p_buffer) * (p.t_cell / p.t0) ** 1.5


def transit_time_us(delta_x_um: float, d_cm2_s: float) -> float:
    """Time for an atom to diffuse a distance delta_x, in µs.

    Inverts the 2D diffusion length relation delta_x = sqrt(4 D t).
    """
    if delta_x_um <= 0.0 or d_cm2_s <= 0.0:
        raise DomainError("distance and diffusion coefficient must be positive")
    # um^2 / (um^2/us): 4*D in um^2/us is 4*D*100
    return delta_x_um * delta_x_um / (4.0 * d_cm2_s * _CM2_PER_S_TO_UM2_PER_US)


def _require_in_band(f_mhz: float, p: PhysicsParams) -> None:
    if not p.in_band(f_mhz):
        lo, hi = p.band
        raise OutOfBandError(f"{f_mhz} MHz outside deflector band [{lo}, {hi}] MHz")


def rail_position_um(f_mhz: float, p: PhysicsParams) -> float:
    """Lateral beam position for a drive frequency; band center maps to 0.

    Raises OutOfBandError for a frequency outside the deflector band.
    """
    _require_in_band(f_mhz, p)
    return (f_mhz - p.f_center) * p.pos_per_mhz


def aod_efficiency(f_mhz: float, p: PhysicsParams) -> float:
    """Relative diffraction efficiency of the deflector at a drive frequency.

    Parabolic roll-off from 1 at band center down to 1 - edge_loss at the
    band edges. Not folded into the storage model: the measured per-rail
    efficiencies already include it.
    """
    _require_in_band(f_mhz, p)
    x = (f_mhz - p.f_center) / p.f_halfband
    return 1.0 - p.edge_loss * x * x


def spread_variance_um2(s2_um2: float, dt_us: float, d_cm2_s: float) -> float:
    """Per-axis Gaussian variance after dt of free diffusion: s2 + 2 D dt."""
    if s2_um2 < 0.0:
        raise DomainError("variance must be non-negative")
    if dt_us < 0.0:
        raise DomainError("elapsed time must be non-negative")
    return s2_um2 + 2.0 * d_cm2_s * _CM2_PER_S_TO_UM2_PER_US * dt_us


def read_sampling_variance_um2(p: PhysicsParams) -> float:
    """Per-axis variance of the Gaussian weight a read samples a component with.

    Retrieval is driven by the control beam and the retrieved light is
    detected in the signal mode, so the sampling weight is the product of
    both intensity profiles; per axis the variances (w/2)² combine
    harmonically.
    """
    v_control = (p.w_control / 2.0) ** 2
    v_signal = (p.w_signal / 2.0) ** 2
    return v_control * v_signal / (v_control + v_signal)


def overlap_factor(d_um: float, s2_um2: float, p: PhysicsParams) -> float:
    """Sampling weight of a read displaced by d from a stored component.

    Normalized to the coaxial value at the same variance:
    chi = exp(-d² / (2 (s2 + v))) with v the read sampling variance.
    Equals 1 iff d = 0; grows toward 1 with s2 for fixed d != 0 as the
    spreading component reaches the displaced read beam.
    """
    if s2_um2 < 0.0:
        raise DomainError("variance must be non-negative")
    v = read_sampling_variance_um2(p)
    return math.exp(-(d_um * d_um) / (2.0 * (s2_um2 + v)))


def depletion_fraction(d_um: float, p: PhysicsParams) -> float:
    """Fraction of a stored component destroyed by a control pulse at distance d.

    Super-Gaussian kernel exp(-(|d|/w_dep)^(2 m_dep)). The strong control
    field destroys coherence over a wider, flatter region than it
    efficiently retrieves from, which is why this kernel is separate from
    (and much flatter than) the retrieval overlap. Beyond w_dep a high
    order makes the power overflow a float, and exp(-huge) is 0.0.
    """
    # a float exponent is inf, not an error, when 2 * m_dep is beyond a float
    try:
        return math.exp(-((abs(d_um) / p.w_dep) ** (2.0 * p.m_dep)))
    except OverflowError:
        return 0.0


def temporal_decay(amplitude: float, dt_us: float, tau_us: float) -> float:
    """Exponential storage decay: amplitude * exp(-dt / tau)."""
    if tau_us <= 0.0:
        raise DomainError("lifetime must be strictly positive")
    if dt_us < 0.0:
        raise DomainError("elapsed time must be non-negative")
    return amplitude * math.exp(-dt_us / tau_us)

