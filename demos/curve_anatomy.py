"""Dissect the contact curve of one motion on the unit sphere.

The petal motion (v) tilts the rolling disc away from upright, swings it
around a bit, straightens it, swings back,: a closed curve with four
corners and no azimuthal lap. This script regularizes it, reads off its
length, corners, pole layout and region areas, and checks the offset
machinery on a smooth latitude circle for comparison.

Run:  python3 demos/curve_anatomy.py
"""

import math

from geophase import (classify_poles, curvature_integral, example_gallery,
                      offset_length, offset_length_derivative, region_areas,
                      regularize, turning_angle_sum)

PI = math.pi

curve = regularize(example_gallery("v"))
print("motion (v), contact curve on the unit sphere:")
print(f"  arc length          {curve.total_length:8.4f}")
print(f"  corners             {len(curve.cusps)}")
for c in curve.cusps:
    print(f"    t = {c.t:6.4f}   exterior angle {c.alpha / PI:+.3f} pi")
print(f"  sum of turning      {turning_angle_sum(curve) / PI:+.3f} pi")

i_plus, i_minus = classify_poles(curve)
a_plus, a_minus = region_areas(curve)   # signed solid angle
# Gauss-Bonnet on the boundary of the left region (Euler characteristic 1)
gb_plus = 2.0 * PI - curvature_integral(curve) - turning_angle_sum(curve)
print(f"  poles left/right    {i_plus} / {i_minus}")
print(f"  area left region    {a_plus / PI:.4f} pi  "
      f"(Gauss-Bonnet {gb_plus / PI:.4f} pi)")
print(f"  area right region   {a_minus / PI:.4f} pi")
print(f"  areas total         {(a_plus + a_minus) / PI:.4f} pi")

print()
print("offset machinery on the smooth latitude circle of motion (iv),")
print("tilt pi/3 (the corners of (v) rule it out there):")
latitude = regularize(example_gallery("iv", beta0=PI / 3))
l0 = offset_length(latitude, 0.0)
for q in (0.05, 0.01, 0.001):
    lq = offset_length(latitude, q)
    print(f"  q = {q:5.3f}: L(q) = {lq:8.5f}   (L0 - L(q))/q = "
          f"{(l0 - lq) / q:8.5f}")
print(f"  limit should be 2 pi cos(pi/3) = {2.0 * PI * 0.5:8.5f}")
lhs = offset_length_derivative(latitude)
rhs = curvature_integral(latitude)
print(f"  dL/dq at 0 = {lhs:+.6f} matches the geodesic curvature"
      f" integral {rhs:+.6f}")
