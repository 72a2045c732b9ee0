"""
Closed-form clips tables for the reflection families
====================================================

Clips cells where one argument is a rotation-plus-inversion group X+Z2c
and the other contains improper elements without -Id follow from one
rule.  Each class is read as its envelope with a sign on every axis
orbit: the order p of the axis, the sign of its generator, the signs of
the half-turns perpendicular to it, and the sign of its own half-turn.
The rule puts the principal axis of the Z, D or axial side on each axis
of the other side and names what the shared axes keep.  This script
prints the signed axes of one row and two columns, one of them axial,
and the cells they give.
"""

from o3clips import clips, clips_type2_type3, parse_label


def show_axes(spelling: str) -> None:
    print(f"signed axes of {spelling}:")
    for p, alpha, half, h in parse_label(spelling).axes:
        order = "infinity (written 0)" if p == 0 else p
        print(f"  order {order}, generator {alpha:+d}, "
              f"perpendicular half-turns {list(half) or 'none'}, "
              f"own half-turn {'none' if h is None else f'{h:+d}'}")


# one row: D6+Z2c enters by its rotation part D6, every sign +1 (its two
# orbits of secondary lines carry equal signs and count once)
show_axes("D6+Z2c")
row = parse_label("D6+Z2c")
for col in ("Z4^-", "Z6^-", "D4^z", "D6^z", "D8^d", "D12^d", "O^-"):
    print(f"  {row} x {col}: {clips_type2_type3(row, parse_label(col))}")
print()

# one column: D8^d is D8 with -1 on the 45-degree turn, so its two orbits
# of secondary lines carry opposite signs, and a secondary line of a row
# laid on either gives Z2 or Z2^-
show_axes("D8^d")
col = parse_label("D8^d")
for row in ("Z2+Z2c", "Z4+Z2c", "D3+Z2c", "D4+Z2c", "T+Z2c", "O+Z2c",
            "I+Z2c"):
    print(f"  {row} x {col}: {clips_type2_type3(parse_label(row), col)}")
print()

# the same cells through the public entry point (which also handles the
# canonical collapses, e.g. D2^d is the same class as D2^z)
print("D2^d resolves to", parse_label("D2^d"))
print("O+Z2c x D2^d:", clips("O+Z2c", "D2^d"))

# an axial column: O(2)^- is O(2), the D envelope of order infinity, with
# -1 on its perpendicular half-turns.  It holds every such half-turn, so
# a row axis with perpendicular half-turns gives a D^z class at every
# spin, never a bare cyclic one
show_axes("O(2)^-")
col = parse_label("O(2)^-")
for row in ("Z4+Z2c", "Z5+Z2c", "D4+Z2c", "D5+Z2c", "T+Z2c", "O+Z2c",
            "I+Z2c", "SO(2)+Z2c"):
    print(f"  {row} x {col}: {clips_type2_type3(parse_label(row), col)}")
print()

# the O(2)+Z2c row against the finite columns is kept as published
for col in ("Z4^-", "D6^z", "D8^d"):
    print(f"O(2)+Z2c x {col}:", clips("O(2)+Z2c", col))
