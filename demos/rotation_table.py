"""Reproduce the rotation-angle table for the six stock motions.

A disc of radius b rolls without slipping on the rim of a fixed disc of
radius a while the plane of contact tilts and swings. The total rotation
splits into a gearing part (set by the radii and the swept angle alone)
and a geometric part (set only by the curve the contact normal traces on
the unit sphere). Here a=2, b=1.

Run:  python3 demos/rotation_table.py
"""

import math

from geophase import (Radii, dynamical_phase, example_gallery,
                      extrapolated_region_report, geometric_phase_area,
                      geometric_phase_baumkuchen, geometric_phase_curvature,
                      geometric_phase_line)

RADII = Radii(2.0, 1.0)
PI = math.pi

MOTIONS = [
    ("i", None, "full lap, rim laid flat (valley)"),
    ("ii", None, "full lap, disc upright"),
    ("iii", None, "full lap, rim laid flat (over the top)"),
    ("iv", PI / 3, "full lap at constant tilt pi/3"),
    ("v", None, "tilt-and-return petal, no lap"),
    ("vi", None, "clockwise lap with two tilt excursions"),
]


def in_pi(x):
    return f"{x / PI:+7.4f} pi"


print(f"fixed disc a={RADII.a:g}, rolling disc b={RADII.b:g}")
print()
header = (f"{'motion':<6} {'Delta_d':>11} {'A_plus':>11} {'2 pi I+':>11} "
          f"{'Delta_g':>11} {'Delta':>11}")
print(header)
print("-" * len(header))

for name, beta0, blurb in MOTIONS:
    path = example_gallery(name, beta0=beta0, radii=RADII)
    delta_d = dynamical_phase(path)
    delta_g = geometric_phase_line(path)

    # area of the left region, freed of the pole clamp by adding back the
    # sliver the clamp clipped
    region = extrapolated_region_report(path)

    print(f"{name:<6} {in_pi(delta_d)} {in_pi(region.A_plus)} "
          f"{in_pi(2.0 * PI * region.I_plus)} {in_pi(delta_g)} "
          f"{in_pi(delta_d + delta_g)}   {blurb}")

print()
print("cross-checks of Delta_g by independent routes (worst absolute error")
print("against the line integral):")
for name, beta0, _ in MOTIONS:
    path = example_gallery(name, beta0=beta0, radii=RADII)
    line = geometric_phase_line(path)
    others = {
        "sector bounds (centre)":
            geometric_phase_baumkuchen(path, 100_000).centre,
        "spherical area": geometric_phase_area(path),
        "turning + curvature": geometric_phase_curvature(path),
    }
    worst = max(abs(v - line) for v in others.values())
    print(f"  {name:<4} line={in_pi(line)}   worst |err| = {worst:.2e}")
