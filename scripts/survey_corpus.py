#!/usr/bin/env python3
"""Survey the desk-scale polar spaces: counts, trivial parameters, residuals.

Prints, for each space of manifest.SPACE_CORPUS: the enumerated point count
against the theta formula, the parameters of the full point set (always
theta_r-tight and u-ovoid at once), the 1-tight greedy generator, and —
where a nonsingular point with elliptic residual exists — the residual's
classification.  A quick way to eyeball that the machinery hangs together
on every kind at once.
"""

from polarkit import forms, intriguing, manifest, polar


def describe(rep):
    tags = []
    if rep.tight_i is not None:
        tags.append(f"{rep.tight_i}-tight")
    if rep.ovoid_m is not None:
        tags.append(f"{rep.ovoid_m}-ovoid")
    if not tags:
        tags.append("intriguing" if rep.is_intriguing else "plain")
    return f"|M|={rep.size:<5} h=({rep.h1},{rep.h2}) " + " ".join(tags)


def main():
    for (kind, pdim, q), _ in manifest.SPACE_CORPUS:
        sp = manifest.corpus_space(kind, pdim, q)
        u = (q ** sp.rank - 1) // (q - 1)
        assert sp.num_points == u * sp.ovoid_number
        print(f"{sp.name:<9} r={sp.rank} theta={sp.ovoid_number:<3}"
              f" points={sp.num_points}")
        print(f"  full set   {describe(intriguing.classify(sp, polar.full_set(sp)))}")
        gen = polar.maximal_ts_points(sp)
        print(f"  generator  {describe(intriguing.classify(sp, gen))}")
        if sp.kind is forms.FormKind.PARABOLIC:
            S = polar.nonsingular_point_with_residual(sp, "Q-")
            res = polar.perp_residual(sp, S)
            print(f"  elliptic residual of a nonsingular point: "
                  f"{describe(intriguing.classify(sp, res))}")
        print()


if __name__ == "__main__":
    main()
