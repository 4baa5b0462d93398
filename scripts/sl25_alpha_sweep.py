#!/usr/bin/env python3
"""How the SL2(5) orbit pair classifies under every traced symplectic form.

The two 40-vector orbits of SL2(5) < SL2(9) always flatten to the same
partition of PG(3,3) into two 20-point sets.  What changes with the scalar
alpha in the traced form Tr(alpha * kappa') is the perp graph laid over
those points — and with it the classification:

    alpha a square     -> both sets are 2-ovoids   (h = 5 on, 8 off)
    alpha a nonsquare  -> both sets are 5-tight    (h = 8 on, 5 off)

Rescaling vectors by s carries the alpha-graph to the alpha*s^2-graph, so
only the square class of alpha can matter; this sweep shows the two classes
really do differ, and that alpha = g (the field generator) reproduces the
standard alternating Gram on GF(3)^4 exactly.
"""

import numpy as np

from polarkit import constructions, fieldred, forms, gf, group, intriguing, polar


def main():
    F9, F3 = gf.field(3, 2), gf.field(3)
    wform = forms.standard_form("W", 2, F9)
    std = forms.standard_form("W", 4, F3)

    gset = constructions.sl2_5_in_sl2_9()
    orbits = group.vector_orbit_lists(gset)
    print(f"vector orbits: {sorted(len(o) for o in orbits)}")
    print(f"{'alpha':>8}  {'square':>6}  {'std gram':>8}  classification")

    partitions = set()
    for alpha in sorted(F9.units()):
        fr = fieldred.reduce(1, wform, F3, alpha=alpha)
        sp = fr.small_space
        sets = [tuple(np.unique(sp.locate(fr.flattener.flatten(o))).tolist())
                for o in orbits]
        partitions.add(frozenset(sets))
        reps = [intriguing.classify(sp, polar.PointSet(sp, s)) for s in sets]
        kinds = []
        for rep in reps:
            if rep.tight_i is not None:
                kinds.append(f"{rep.tight_i}-tight h=({rep.h1},{rep.h2})")
            else:
                kinds.append(f"{rep.ovoid_m}-ovoid h=({rep.h1},{rep.h2})")
        coeffs = "+".join(f"{c}g^{i}" if i else str(c)
                          for i, c in enumerate(F9.coeffs(alpha)) if c) or "0"
        is_std = sp.form.data == std.data
        print(f"{coeffs:>8}  {str(F9.is_square(alpha)):>6}  {str(is_std):>8}"
              f"  {kinds[0]} / {kinds[1]}")

    print(f"distinct point partitions across alphas: {len(partitions)}")


if __name__ == "__main__":
    main()
