"""Compiled-in verification targets.

Each target freezes an exact expected outcome (point counts, orbit sizes,
intriguing parameters) and recomputes it from scratch when run; a target
matches only on exact equality, never within tolerance.  The CLI `verify`
subcommand iterates these, and the acceptance test suite runs the same
functions directly.
"""

from dataclasses import dataclass

from . import constructions as cx
from . import fieldred, forms, gf, intriguing, polar


@dataclass(frozen=True)
class VerificationTarget:
    id: str
    description: str
    budget: str                 # "fast" | "slow"
    run: object                 # () -> (expected, computed) dict pair


@dataclass(frozen=True)
class RunReport:
    target_id: str
    expected: dict
    computed: dict
    match: bool
    wall_time: float

    def serialize(self):
        return {"id": self.target_id, "match": self.match,
                "expected": self.expected, "computed": self.computed}


# -- the desk-scale space corpus -------------------------------------------

# (kind, projective dim, q) -> (points, rank, theta)
SPACE_CORPUS = (
    (("W", 3, 3), (40, 2, 10)),
    (("W", 5, 2), (63, 3, 9)),
    (("Q", 4, 3), (40, 2, 10)),
    (("Q", 6, 3), (364, 3, 28)),
    (("Q+", 5, 2), (35, 3, 5)),
    (("Q+", 7, 2), (135, 4, 9)),
    (("Q+", 7, 3), (1120, 4, 28)),
    (("Q-", 5, 2), (27, 2, 9)),
    (("Q-", 5, 3), (112, 2, 28)),
    (("H", 3, 4), (45, 2, 9)),
    (("H", 4, 4), (165, 2, 33)),
)


def corpus_space(kind, pdim, q):
    F = gf.field_of_order(q)
    return polar.build(forms.standard_form(kind, pdim + 1, F))


def _t_space_counts():
    expected = {}
    computed = {}
    for (kind, pdim, q), (npts, rank, theta) in SPACE_CORPUS:
        name = f"{kind}({pdim},{q})"
        expected[name] = {"points": npts, "rank": rank, "theta": theta}
        sp = corpus_space(kind, pdim, q)
        computed[name] = {"points": sp.num_points, "rank": sp.rank,
                          "theta": sp.ovoid_number}
    return expected, computed


def _t_trivial_sets():
    expected = {}
    computed = {}
    for (kind, pdim, q), (npts, rank, theta) in SPACE_CORPUS:
        name = f"{kind}({pdim},{q})"
        u = (q ** rank - 1) // (q - 1)
        h1 = q ** (rank - 1) + theta * (q ** (rank - 1) - 1) // (q - 1)
        expected[name] = {"tight_i": theta, "ovoid_m": u, "h1": h1}
        sp = corpus_space(kind, pdim, q)
        rep = intriguing.classify(sp, polar.full_set(sp))
        computed[name] = _report(rep, "tight_i", "ovoid_m", "h1")
    return expected, computed


def _report(rep, *keys):
    """The named fields of a classification report as a dict, by default
    all five: size, tight_i, ovoid_m, h1 and h2."""
    return {k: getattr(rep, k)
            for k in keys or ("size", "tight_i", "ovoid_m", "h1", "h2")}


# -- constructions ----------------------------------------------------------


def _orbit_summary(partition):
    return sorted(map(_report, intriguing.classify_orbits(partition)),
                  key=lambda r: r["size"])


def _t_adjoint_sl3_q3():
    expected = {"orbit_sizes": [52, 312],
                "orbits": [
                    {"size": 52, "tight_i": 4, "ovoid_m": None,
                     "h1": 25, "h2": 16},
                    {"size": 312, "tight_i": 24, "ovoid_m": None,
                     "h1": 105, "h2": 96},
                ],
                "tight_sum": 28}
    am = cx.adjoint_sl3(3)
    orbs = _orbit_summary(am.orbits)
    computed = {"orbit_sizes": list(am.orbits.orbit_sizes),
                "orbits": orbs,
                "tight_sum": sum(o["tight_i"] or 0 for o in orbs)}
    return expected, computed


_DLENGTH_ROWS = (
    ("H", 4, 4, {2: (18, None, 2), 4: (27, None, 3)}),
    ("H", 4, 5, {2: (30, 6, None), 4: (135, 27, None)}),
    ("Q-", 3, 6, {3: (80, 20, None), 6: (32, 8, None)}),
    ("Q", 3, 7, {3: (140, None, 5), 6: (224, None, 8)}),
    ("Q+", 3, 8, {3: (224, None, 8), 6: (896, None, 32)}),
)


def _t_dlength_suite():
    expected = {}
    computed = {}
    for kind, q, t, classes in _DLENGTH_ROWS:
        name = f"{kind} q={q} t={t}"
        expected[name] = {str(w): {"size": s, "tight_i": ti, "ovoid_m": m}
                          for w, (s, ti, m) in classes.items()}
        dp = cx.dlength_partition(kind, q, t)
        computed[name] = {
            str(w): _report(intriguing.classify(dp.space, pset),
                            "size", "tight_i", "ovoid_m")
            for w, pset in dp.classes.items()}
    return expected, computed


def _t_q43_splits():
    expected = {"lengths": [3], "length_class_sizes": [40],
                "ovoid_split": [
                    {"size": 20, "tight_i": None, "ovoid_m": 2, "h1": 5, "h2": 8},
                    {"size": 20, "tight_i": None, "ovoid_m": 2, "h1": 5, "h2": 8},
                ],
                "tight_split": [
                    {"size": 16, "tight_i": 4, "ovoid_m": None, "h1": 7, "h2": 4},
                    {"size": 24, "tight_i": 6, "ovoid_m": None, "h1": 9, "h2": 6},
                ]}
    dp = cx.dlength_partition("Q", 3, 5)
    sp = cx.q43_monomial_splits()
    computed = {"lengths": list(dp.lengths),
                "length_class_sizes": [len(s) for s in dp.classes.values()],
                "ovoid_split": _orbit_summary(sp["ovoid_split"]),
                "tight_split": _orbit_summary(sp["tight_split"])}
    return expected, computed


def _t_sl25_vector_orbits():
    from . import group
    expected = {"vector_orbit_sizes": [40, 40], "orders": [4, 5]}
    gset = cx.sl2_5_in_sl2_9()
    F = gset.field
    wform = forms.standard_form("W", 2, F)
    sizes = group.vector_orbits(wform, gset)
    orders = [cx._mat_order(F, g.matrix) for g in gset.elements[:2]]
    return expected, {"vector_orbit_sizes": list(sizes), "orders": orders}


def _t_sl25_to_w33():
    # The same partition of PG(3,3), classified against the traced form for a
    # nonsquare alpha (the construction's choice: 5-tight) and for alpha = 1
    # (2-ovoids).  W-spaces index every projective point identically, so the
    # member indices transfer between the two spaces verbatim.
    expected = {"sets": [
        {"size": 20, "tight_i": 5, "ovoid_m": None, "h1": 8, "h2": 5},
        {"size": 20, "tight_i": 5, "ovoid_m": None, "h1": 8, "h2": 5},
    ], "alpha_one_sets": [
        {"size": 20, "tight_i": None, "ovoid_m": 2, "h1": 5, "h2": 8},
        {"size": 20, "tight_i": None, "ovoid_m": 2, "h1": 5, "h2": 8},
    ], "disjoint": True, "tight_sum": 10, "gram_is_standard": True}
    fr, sets = cx.sl2_5_reduced_sets()
    sp1 = fieldred.reduce(1, forms.standard_form("W", 2, fr.large_field),
                          fr.small_field, alpha=1).small_space
    reps = [_report(intriguing.classify(fr.small_space, s)) for s in sets]
    reps1 = [_report(intriguing.classify(sp1, polar.PointSet(sp1, s.members)))
             for s in sets]
    std = forms.standard_form("W", 4, fr.small_field)
    computed = {"sets": reps, "alpha_one_sets": reps1,
                "disjoint": not any(i in sets[1] for i in sets[0].members),
                "tight_sum": sum(r["tight_i"] or 0 for r in reps),
                "gram_is_standard": fr.small_space.form.data == std.data}
    return expected, computed


# -- field reduction --------------------------------------------------------


def _t_reduce_row2():
    expected = {"large_points": 25, "small_points": 135, "m1": 75,
                "m1_tight_i": 5, "complement_tight_i": 4}
    F2 = gf.field(2, 1)
    F4 = gf.field(2, 2)
    big = forms.standard_form("Q+", 4, F4)
    fr = fieldred.reduce(2, big, F2)
    m1 = fieldred.blow_up(fr)
    rep = intriguing.classify(fr.small_space, m1)
    crep = intriguing.classify(fr.small_space, m1.complement())
    computed = {"large_points": fr.large_space.num_points,
                "small_points": fr.small_space.num_points,
                "m1": len(m1), "m1_tight_i": rep.tight_i,
                "complement_tight_i": crep.tight_i}
    return expected, computed


def _t_reduce_row1():
    expected = {"large_points": 10, "small_points": 40, "m1": 40,
                "m1_is_everything": True}
    F3 = gf.field(3, 1)
    F9 = gf.field(3, 2)
    fr = fieldred.reduce(1, forms.standard_form("W", 2, F9), F3)
    m1 = fieldred.blow_up(fr)
    computed = {"large_points": fr.large_space.num_points,
                "small_points": fr.small_space.num_points,
                "m1": len(m1),
                "m1_is_everything": len(m1) == fr.small_space.num_points}
    return expected, computed


def _t_reduce_row9():
    expected = {"large_points": 28, "small_points": 112, "m1": 112}
    F3 = gf.field(3, 1)
    F9 = gf.field(3, 2)
    fr = fieldred.reduce(9, forms.standard_form("H", 3, F9), F3)
    m1 = fieldred.blow_up(fr)
    computed = {"large_points": fr.large_space.num_points,
                "small_points": fr.small_space.num_points, "m1": len(m1)}
    return expected, computed


# -- residual constructions -------------------------------------------------


def _t_residual_q43():
    expected = {"size": 10, "ovoid_m": 1, "h1": 1, "h2": 4}
    sp = corpus_space("Q", 4, 3)
    S = polar.nonsingular_point_with_residual(sp, "Q-")
    rep = intriguing.classify(sp, polar.perp_residual(sp, S))
    return expected, _report(rep, "size", "ovoid_m", "h1", "h2")


def _t_residual_qm52():
    expected = {"size": 9, "tight_i": 3, "h1": 5, "h2": 3}
    sp = corpus_space("Q-", 5, 2)
    S = polar.first_subspace_of_type(sp, 2, "Q-")
    rep = intriguing.classify(sp, polar.perp_residual(sp, S))
    return expected, _report(rep, "size", "tight_i", "h1", "h2")


# -- Zsigmondy --------------------------------------------------------------


def _zsigmondy_none_expected(n, k):
    if k == 1:
        return n == 2
    if k == 2:
        m = n + 1
        return m & (m - 1) == 0
    return (n, k) == (2, 6)


def _t_zsigmondy():
    spot = {"2,6": None, "7,2": None, "2,10": 11, "6,2": 7,
            "2,12": 13, "3,5": 11}
    violations = []
    computed_spot = {}
    for n in range(2, 51):
        for k in range(1, 13):
            if n ** k >= 2 ** 63:
                continue
            z = intriguing.zsigmondy(n, k)
            key = f"{n},{k}"
            if key in spot:
                computed_spot[key] = z
            if z is None:
                if not _zsigmondy_none_expected(n, k):
                    violations.append(key)
                continue
            ok = (gf.is_prime(z) and (n ** k - 1) % z == 0
                  and all((n ** i - 1) % z for i in range(1, k))
                  and not _zsigmondy_none_expected(n, k))
            if not ok:
                violations.append(key)
    expected = {"violations": [], "spot": spot}
    return expected, {"violations": violations, "spot": computed_spot}


# -- the slow Sp6(3) run ----------------------------------------------------


def _t_extsq_sp6_q3():
    expected = {"points": 265720, "orbit_sizes": [3640, 262080],
                "orbits": [
                    {"size": 3640, "tight_i": 10, "ovoid_m": None,
                     "h1": 1453, "h2": 1210},
                    {"size": 262080, "tight_i": 720, "ovoid_m": None,
                     "h1": 87363, "h2": 87120},
                ],
                "tight_sum": 730, "e01_in_small_orbit": True}
    em = cx.extsq_sp6(3)
    orbs = _orbit_summary(em.orbits)
    idx = cx.wedge_point(em, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
    computed = {"points": em.space.num_points,
                "orbit_sizes": list(em.orbits.orbit_sizes),
                "orbits": orbs,
                "tight_sum": sum(o["tight_i"] or 0 for o in orbs),
                "e01_in_small_orbit":
                    len(em.orbits.orbit(em.orbits.labels[idx])) == 3640}
    return expected, computed


# -- registry ---------------------------------------------------------------


TARGETS = (
    VerificationTarget("space-counts", "enumerated |P| = (q^r-1)/(q-1)*theta_r"
                       " on the 11-space corpus", "fast", _t_space_counts),
    VerificationTarget("trivial-sets", "full point set matches both intriguing"
                       " families", "fast", _t_trivial_sets),
    VerificationTarget("adjoint-sl3-q3", "SL3(3) two orbits on Q(6,3): 4- and"
                       " 24-tight", "fast", _t_adjoint_sl3_q3),
    VerificationTarget("dlength-suite", "coordinate-length classes on five"
                       " diagonal spaces", "fast", _t_dlength_suite),
    VerificationTarget("q43-splits", "monomial subgroups split the Q(4,3)"
                       " quadric 20+20 and 16+24", "fast", _t_q43_splits),
    VerificationTarget("sl25-vector-orbits", "SL2(5) < SL2(9) with vector"
                       " orbits 40+40", "fast", _t_sl25_vector_orbits),
    VerificationTarget("sl25-to-w33", "SL2(5) orbits push down to two 5-tight"
                       " sets of W(3,3) (2-ovoids when alpha=1)", "fast",
                       _t_sl25_to_w33),
    VerificationTarget("reduce-row2-qp72", "Q+(3,4) -> Q+(7,2): M1 is 5-tight,"
                       " complement 4-tight", "fast", _t_reduce_row2),
    VerificationTarget("reduce-row1-w33", "W(1,9) -> W(3,3): M1 covers all 40"
                       " points", "fast", _t_reduce_row1),
    VerificationTarget("reduce-row9-qm53", "H(2,9) -> Q-(5,3): M1 covers the"
                       " space", "fast", _t_reduce_row9),
    VerificationTarget("residual-q43", "nonsingular-point residual in Q(4,3)"
                       " is a 1-ovoid", "fast", _t_residual_q43),
    VerificationTarget("residual-qm52", "elliptic-line residual in Q-(5,2) is"
                       " 3-tight", "fast", _t_residual_qm52),
    VerificationTarget("zsigmondy", "primitive prime divisors for n <= 50,"
                       " k <= 12", "fast", _t_zsigmondy),
    VerificationTarget("extsq-sp6-q3", "Sp6(3) two orbits on Q(12,3): 10- and"
                       " 720-tight", "slow", _t_extsq_sp6_q3),
)

_BY_ID = {t.id: t for t in TARGETS}


def get(target_id):
    try:
        return _BY_ID[target_id]
    except KeyError:
        raise KeyError(f"unknown verification target {target_id!r}") from None


def run_target(target):
    import time
    t0 = time.perf_counter()
    expected, computed = target.run()
    return RunReport(target_id=target.id, expected=expected,
                     computed=computed, match=expected == computed,
                     wall_time=time.perf_counter() - t0)
