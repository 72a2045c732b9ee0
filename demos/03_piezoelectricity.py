"""
Symmetry classes of the coupled electroelastic law
==================================================

A fully coupled linear electroelastic material carries an elasticity
tensor, a coupling tensor, and a permittivity tensor.  Each factor space
has a known finite catalog of symmetry classes; the classes of the
coupled law are obtained by clipping the three catalogs together.
"""

from o3clips import (
    ELA_CLASSES,
    PIEZ_CLASSES,
    SYM_CLASSES,
    compute_piez,
    diff_piez,
)

print("elasticity classes   (8):", " ".join(ELA_CLASSES.labels()))
print("coupling classes    (16):", " ".join(PIEZ_CLASSES.labels()))
print("permittivity classes (3):", " ".join(SYM_CLASSES.labels()))
print()

computed = compute_piez()
print(f"coupled law classes ({len(computed)}):")
for lab in computed.labels():
    print("  ", lab)
print()

# the builtin catalog lists 26 printed entries naming 25 classes (D2^d
# is the same class as D2^z); the recomputed fold finds those 25 plus
# the inversion-only class 1+Z2c
diff = diff_piez()
print("printed entries:", diff.printed_count,
      "/ canonical classes:", diff.canonical_count)
print("collisions:", diff.collisions)
print("missing from computed:", diff.missing or "none")
print("extra in computed:", diff.extra or "none")
for lbl, (a, b) in diff.witnesses.items():
    print(f"  witness for {lbl}: clips({a}, {b}) contains it")
