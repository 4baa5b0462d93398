"""The benchmark's workloads: seeded inputs, job lists and exactness oracles.

A workload is a fixed list of jobs run back to back (a closed loop with one
client).  A job is one user-level computation against polarkit's public API
and returns ``(expected, computed)``.  The expected side is a closed form
from the theory of finite polar spaces or a literal frozen in
``polarkit.manifest``; it never depends on the seed.

The seed only picks a random isometry g of each standard form, a word in the
family's generators.  Generator sets are conjugated by g and classified point
sets are moved by g, which changes every matrix the program sees but not the
amount of work or any expected report.  Conjugating and moving is input
generation: it runs in setup or inside ``clock.untimed()``.
"""

import contextlib
import gc
import io
import json
import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from polarkit import cli, fieldred, forms, gf, group, intriguing, manifest, polar
from polarkit import constructions as cx

from reference import reference

WORD_LEN = 16

# Two fixed words in the generators of Omega(11,3); they generate a group
# transitive on the 29,524 points of Q(10,3), found with few generators and
# therefore a deep breadth-first search.
PAIR_WORDS = ((98, 194, 107, 0, 66, 130, 124, 103, 60, 122, 91, 149),
              (55, 129, 35, 72, 35, 193, 7, 158, 64, 136, 180, 154))

_FAMILY = {"W": "Sp", "H": "SU", "Q": "Omega", "Q+": "OmegaPlus",
           "Q-": "OmegaMinus"}

REPORT_KEYS = ("size", "tight_i", "ovoid_m", "h1", "h2")


@dataclass
class Job:
    name: str
    run: Callable            # (clock) -> (expected, computed)
    isometry: object = None  # the seeded Semisimilarity, for jobs that use one


class Clock:
    """Timer for one pass that leaves out input generation done inside jobs."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.excluded = 0.0

    @contextlib.contextmanager
    def untimed(self):
        t0 = perf_counter()
        on = self.recorder is not None and self.recorder.on
        if on:
            self.recorder.on = False
        try:
            yield
        finally:
            if on:
                self.recorder.on = True
            self.excluded += perf_counter() - t0


# -- closed forms -------------------------------------------------------------


def rank_theta(kind, d, q):
    """(r, theta_r): |P| = theta_r (q^r - 1)/(q - 1), theta_r = q^(r+e-1) + 1.

    e = 0, 1, 2 for Q+, Q and W, Q-; for H(d-1, q) with q = s^2, theta_r is
    s^(2r-1) + 1 in even and s^(2r+1) + 1 in odd dimension d.
    """
    if kind == "H":
        r = d // 2
        return r, math.isqrt(q) ** (2 * r + (1 if d % 2 else -1)) + 1
    r, e = {"W": (d // 2, 1), "Q": ((d - 1) // 2, 1), "Q+": (d // 2, 0),
            "Q-": (d // 2 - 1, 2)}[kind]
    return r, q ** (r + e - 1) + 1


def point_count(kind, d, q):
    r, theta = rank_theta(kind, d, q)
    return (q ** r - 1) // (q - 1) * theta


def full_set_report(kind, d, q):
    """The whole point set is theta_r-tight and a (q^r-1)/(q-1)-ovoid."""
    r, theta = rank_theta(kind, d, q)
    u = (q ** r - 1) // (q - 1)
    return {"size": u * theta, "tight_i": theta, "ovoid_m": u,
            "h1": q ** (r - 1) + theta * (q ** (r - 1) - 1) // (q - 1),
            "h2": None}


def generator_report(kind, d, q):
    """The points of a maximal totally singular subspace form a 1-tight set."""
    r, _ = rank_theta(kind, d, q)
    u = (q ** r - 1) // (q - 1)
    return {"size": u, "tight_i": 1, "h1": u,
            "h2": (q ** (r - 1) - 1) // (q - 1)}


def ovoid_report(kind, d, q, size):
    """An m-ovoid of size m theta_r has h1 = (m-1) theta_(r-1) + 1, h2 = m theta_(r-1)."""
    r, theta = rank_theta(kind, d, q)
    m = size // theta
    _, theta1 = rank_theta(kind, d - 2, q)
    return {"size": size, "tight_i": None, "ovoid_m": m,
            "h1": (m - 1) * theta1 + 1, "h2": m * theta1}


def report(rep, keys=REPORT_KEYS):
    return {k: getattr(rep, k) for k in keys}


# -- seeded inputs ------------------------------------------------------------


def isometries(family, d, F):
    """The family's generators on the standard form, without the self-check."""
    return group.classical_generators(family, d, F, self_check=False).elements


def word(elements, indices):
    g = elements[indices[0]]
    for i in indices[1:]:
        g = g * elements[i]
    return g


def seeded_isometry(elements, seed, label):
    """A random word of WORD_LEN of the given isometries."""
    rng = random.Random(f"{seed}/{label}")
    return word(elements, [rng.randrange(len(elements)) for _ in range(WORD_LEN)])


def conjugate(gens, g):
    gi = g.inverse()
    return group.GeneratorSet(gens.field, [gi * h * g for h in gens],
                              label=gens.label)


def move(pset, g):
    """The image of a point set under the isometry g."""
    sp = pset.space
    F = sp.field
    out = []
    for v in pset.vectors():
        w = g.apply(v)
        lead = next(x for x in w if x)
        if lead != 1:
            inv = F.inv(lead)
            w = tuple(F.mul(inv, x) for x in w)
        out.append(sp.index[w])
    return polar.PointSet(sp, tuple(out))


# -- jobs ---------------------------------------------------------------------


def orbit_job(kind, d, q, seed):
    """Self-checked generators, orbits of their conjugate, every orbit
    classified.  Witt: the isometry group is transitive on points."""
    F = gf.field_of_order(q)
    family = _FAMILY[kind]
    g = seeded_isometry(isometries(family, d, F), seed, f"{family}({d},{q})")
    expected = {"orbit_sizes": [point_count(kind, d, q)],
                "orbits": [full_set_report(kind, d, q)]}

    def run(clock):
        gens = group.classical_generators(family, d, F)
        with clock.untimed():
            gens = conjugate(gens, g)
        sp = polar.build(forms.standard_form(kind, d, F))
        parts = group.orbits(sp, gens)
        reps = [report(intriguing.classify(sp, s)) for s in parts.orbit_sets()]
        return expected, {"orbit_sizes": list(parts.orbit_sizes),
                          "orbits": reps}

    return Job(f"orbits {family}({d},{q})", run, g)


def pair_job(seed):
    """Orbits of a fixed 2-generated subgroup of Omega(11,3) on Q(10,3)."""
    F = gf.field(3)
    elems = isometries("Omega", 11, F)
    g = seeded_isometry(elems, seed, "Omega(11,3)")
    gi = g.inverse()
    gens = group.GeneratorSet(F, [gi * word(elems, w) * g for w in PAIR_WORDS],
                              label="fixed pair in Omega(11,3)")
    expected = {"orbit_sizes": [point_count("Q", 11, 3)],
                "orbits": [full_set_report("Q", 11, 3)]}

    def run(clock):
        sp = polar.build(forms.standard_form("Q", 11, F))
        parts = group.orbits(sp, gens)
        reps = [report(intriguing.classify(sp, s)) for s in parts.orbit_sets()]
        return expected, {"orbit_sizes": list(parts.orbit_sizes),
                          "orbits": reps}

    return Job("orbits pair(11,3)", run, g)


def _summaries(space, partition):
    return sorted((report(intriguing.classify(space, s))
                   for s in partition.orbit_sets()), key=lambda r: r["size"])


def adjoint_job():
    """SL3(3) on the adjoint module: literals of manifest target adjoint-sl3-q3."""
    expected = {"orbit_sizes": [52, 312], "orbits": [
        {"size": 52, "tight_i": 4, "ovoid_m": None, "h1": 25, "h2": 16},
        {"size": 312, "tight_i": 24, "ovoid_m": None, "h1": 105, "h2": 96}]}

    def run(clock):
        am = cx.adjoint_sl3(3)
        return expected, {"orbit_sizes": list(am.orbits.orbit_sizes),
                          "orbits": _summaries(am.space, am.orbits)}

    return Job("construct adjoint-sl3(3)", run)


def q43_job():
    """Monomial splits of Q(4,3): literals of manifest target q43-splits."""
    ovoid = {"size": 20, "tight_i": None, "ovoid_m": 2, "h1": 5, "h2": 8}
    expected = {"lengths": [3], "length_class_sizes": [40],
                "ovoid_split": [ovoid, ovoid],
                "tight_split": [
                    {"size": 16, "tight_i": 4, "ovoid_m": None, "h1": 7, "h2": 4},
                    {"size": 24, "tight_i": 6, "ovoid_m": None, "h1": 9, "h2": 6}]}

    def run(clock):
        dp = cx.dlength_partition("Q", 3, 5)
        sp = cx.q43_monomial_splits()
        return expected, {
            "lengths": list(dp.lengths),
            "length_class_sizes": [len(s) for s in dp.classes.values()],
            "ovoid_split": _summaries(sp["space"], sp["ovoid_split"]),
            "tight_split": _summaries(sp["space"], sp["tight_split"])}

    return Job("construct q43-splits", run)


def generator_job(kind, d, q, seed, full_set=False):
    """Build the space, take the standard maximal totally singular subspace,
    move it by the seeded isometry and classify it (and the full set)."""
    F = gf.field_of_order(q)
    family = _FAMILY[kind]
    g = seeded_isometry(isometries(family, d, F), seed, f"{family}({d},{q})")
    expected = {"points": point_count(kind, d, q),
                "generator": generator_report(kind, d, q)}
    if full_set:
        expected["full_set"] = full_set_report(kind, d, q)

    def run(clock):
        sp = polar.build(forms.standard_form(kind, d, F))
        M = polar.maximal_ts_points(sp)
        with clock.untimed():
            M = move(M, g)
        computed = {"points": sp.num_points,
                    "generator": report(intriguing.classify(sp, M),
                                        ("size", "tight_i", "h1", "h2"))}
        if full_set:
            computed["full_set"] = report(
                intriguing.classify(sp, polar.full_set(sp)))
        return expected, computed

    return Job(f"generator {kind}({d - 1},{q})", run, g)


def dlength_job():
    """Coordinate-length classes of the diagonal Q(10,3); a class of length w
    has C(11,w) 2^(w-1) points.  The length-3 class is classified (h1 = 273
    is a frozen literal; the class is not intriguing)."""
    expected = {"class_sizes": {w: math.comb(11, w) * 2 ** (w - 1)
                                for w in (3, 6, 9)},
                "length3": {"size": 660, "tight_i": None, "ovoid_m": None,
                            "h1": 273, "h2": None}}

    def run(clock):
        dp = cx.dlength_partition("Q", 3, 11)
        return expected, {
            "class_sizes": {w: len(s) for w, s in dp.classes.items()},
            "length3": report(intriguing.classify(dp.space, dp.classes[3]))}

    return Job("dlength Q(10,3)", run)


def reduction_job(row, q, b, kind, m, small_kind):
    """fieldred.reduce + blow_up + classify.  Each GF(q^b)-point carries
    (q^b-1)/(q-1) GF(q)-points, so |M1| = |P'| (q^b-1)/(q-1); when that is all
    of P the report is the full set's, otherwise M1 is an m-ovoid."""
    S = gf.field_of_order(q)
    L = gf.field(S.p, S.f * b)
    d = m * b
    n_large = point_count(kind, m, q ** b)
    size = n_large * (q ** b - 1) // (q - 1)
    if size == point_count(small_kind, d, q):
        m1 = full_set_report(small_kind, d, q)
    else:
        m1 = ovoid_report(small_kind, d, q, size)
    expected = {"large_points": n_large,
                "small_points": point_count(small_kind, d, q), "m1": m1}

    def run(clock):
        fr = fieldred.reduce(row, forms.standard_form(kind, m, L), S)
        M1 = fieldred.blow_up(fr)
        return expected, {"large_points": fr.large_space.num_points,
                          "small_points": fr.small_space.num_points,
                          "m1": report(intriguing.classify(fr.small_space, M1))}

    return Job(f"reduce row {row} {kind}({m - 1},{q ** b})", run)


def verify_job(target_id):
    """One compiled-in target through the command line, as a user runs it."""
    expected = {"exit": 0, "id": target_id, "match": True}

    def run(clock):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", target_id, "--json"])
        rec = json.loads(out.getvalue())
        return expected, {"exit": code, "id": rec["id"], "match": rec["match"]}

    return Job(f"verify {target_id}", run)


# -- workloads ----------------------------------------------------------------


def prime_orbits(seed):
    jobs = [orbit_job(kind, d, q, seed) for kind, d, q in (
        ("W", 6, 3), ("W", 8, 2), ("W", 4, 5), ("Q-", 8, 3))]
    return jobs + [pair_job(seed), adjoint_job(), q43_job()]


def ext_field(seed):
    # Omega+(6,4) raises its own transitivity self-check at the parent
    # commit; it stays in the list so the defect shows in the failure count.
    jobs = [orbit_job(kind, d, q, seed) for kind, d, q in (
        ("H", 5, 4), ("Q-", 6, 4), ("Q+", 6, 4))]
    jobs += [generator_job("Q-", 8, 4, seed), generator_job("H", 6, 4, seed)]
    jobs += [reduction_job(1, 3, 2, "W", 4, "W"),
             reduction_job(1, 2, 3, "W", 4, "W"),
             reduction_job(3, 2, 2, "Q-", 6, "Q-"),
             reduction_job(9, 2, 2, "H", 5, "Q-"),
             reduction_job(10, 3, 2, "H", 4, "Q+")]
    return jobs


def large_space(seed):
    return [generator_job("Q+", 12, 3, seed, full_set=True),
            generator_job("Q", 11, 3, seed, full_set=True),
            dlength_job()]


def desk_corpus(seed):
    ids = [t.id for t in manifest.TARGETS if t.budget == "fast"]
    random.Random(seed).shuffle(ids)
    return [verify_job(i) for i in ids]


WORKLOADS = {"prime-orbits": prime_orbits, "ext-field": ext_field,
             "large-space": large_space, "desk-corpus": desk_corpus}


# -- passes -------------------------------------------------------------------


@dataclass
class Outcome:
    job: str
    status: str        # "ok", "wrong" or "raised"
    detail: str = ""
    wall: float = 0.0  # seconds, input generation inside the job left out
    ref: float = 0.0   # seconds, the reference loop just before the job


def run_job(job, clock):
    # the previous job's garbage counts toward neither this job's time nor
    # the peak RSS
    gc.collect()
    ref = reference()
    excluded = clock.excluded
    t0 = perf_counter()
    try:
        expected, computed = job.run(clock)
    except Exception as exc:  # a failing job is counted, never fatal
        status, detail = "raised", f"{type(exc).__name__}: {exc}"
    else:
        status, detail = (("ok", "") if expected == computed else
                          ("wrong", f"expected {expected!r}, computed {computed!r}"))
    wall = perf_counter() - t0 - (clock.excluded - excluded)
    return Outcome(job.name, status, detail, wall, ref)


def run_passes(jobs, budget, recorder=None):
    """Whole passes over the job list until the next would overrun `budget`
    seconds; at least one.  Returns one list of Outcomes per pass."""
    passes = []
    start = perf_counter()
    while True:
        clock = Clock(recorder)
        t0 = perf_counter()
        passes.append([run_job(job, clock) for job in jobs])
        t1 = perf_counter()
        if recorder is not None:
            recorder.end_pass()
        if (t1 - start) + (t1 - t0) > budget:
            return passes


def pass_wall(outcomes):
    return sum(o.wall for o in outcomes)
