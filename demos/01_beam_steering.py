"""Where do the rails sit, and how fast do atoms leave a beam?

The deflector maps drive frequency to lateral position: 8 MHz of drive
moves the beam by one signal radius (270 um). Diffraction efficiency
rolls off parabolically toward the band edges, and diffusion through the
buffer gas sets how long an atom stays inside a beam.
"""

from vapormem import (
    aod_efficiency,
    default_params,
    diffusion_coefficient,
    rail_position_um,
    transit_time_us,
)
from vapormem.physics import P_REF_TORR, T_REF_K

p = default_params()
d = diffusion_coefficient(p)

print(f"cell diffusion coefficient: {d:.2f} cm^2/s "
      f"(reference {p.d0} cm^2/s at {T_REF_K} K, {P_REF_TORR} torr)")
print(f"transit time across one signal radius (270 um): "
      f"{transit_time_us(270.0, d):.2f} us")
print()

print("rail map across the deflector band:")
print(f"{'drive_mhz':>10} {'position_um':>12} {'efficiency':>11}")
for f in (150, 170, 190, 200, 210, 230, 250):
    print(f"{f:>10} {rail_position_um(f, p):>12.2f} {aod_efficiency(f, p):>11.4f}")
print()

print("the four standard rails are spaced by 20 MHz = 675 um,")
print("2.5 signal radii apart, which is what keeps them independent.")
