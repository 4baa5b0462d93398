"""Command-line harness: build spaces, run orbit/classification jobs from
files, apply field reductions, rebuild the constructions, and replay the
compiled-in verification manifest.

Exit codes: 0 success / all targets match, 1 verification mismatch, 2 usage
or validation error (including generator rejection).  ``--json`` switches
every subcommand to line-delimited JSON with deterministic bytes (sorted
keys, no wall times).
"""

import argparse
import json
import sys

from . import constructions as cx
from . import fieldred, forms, gf, group, intriguing, manifest, polar


def _emit(args, obj):
    print(json.dumps(obj, sort_keys=True))


def _build_space(args, allow_grid=False):
    F = gf.field_of_order(args.q)
    form = forms.standard_form(args.kind, args.dim + 1, F)
    return polar.build(form, allow_grid=allow_grid)


def _report_dict(rep):
    out = {"size": rep.size, "h1": rep.h1, "h2": rep.h2,
           "intriguing": rep.is_intriguing,
           "tight_i": rep.tight_i, "ovoid_m": rep.ovoid_m}
    return out


def _print_report(rep, prefix=""):
    bits = [f"size={rep.size}", f"h1={rep.h1}", f"h2={rep.h2}"]
    if rep.tight_i is not None:
        bits.append(f"tight_i={rep.tight_i}")
    if rep.ovoid_m is not None:
        bits.append(f"ovoid_m={rep.ovoid_m}")
    if not rep.is_intriguing:
        bits.append("not-intriguing")
    print(prefix + " ".join(bits))


# -- subcommands ------------------------------------------------------------


def cmd_space(args):
    sp = _build_space(args, allow_grid=args.allow_grid)
    if args.json:
        _emit(args, {"kind": sp.kind.value, "dim": sp.d - 1, "q": sp.q,
                     "r": sp.rank, "theta": sp.ovoid_number,
                     "points": sp.num_points})
    else:
        print(f"r={sp.rank} theta={sp.ovoid_number} points={sp.num_points}")
    return 0


def cmd_orbits(args):
    sp = _build_space(args)
    with open(args.gens) as fh:
        data = json.load(fh)
    if not isinstance(data, (list, dict)):
        raise ValueError("generator file is not a JSON object or list")
    gen_list = data if isinstance(data, list) else data.get("generators")
    if gen_list == []:
        # no generators = the trivial group: every point is its own orbit;
        # a header that is there must still describe the space
        for key, want in (("q", sp.q), ("d", sp.d)):
            if isinstance(data, dict) and key in data and not (
                    type(data[key]) is int and data[key] == want):
                raise ValueError(f"dimension or field mismatch: header entry "
                                 f"{key!r} is {data[key]!r}, the space has {want}")
        gens = group.GeneratorSet(sp.field, [group.Semisimilarity(
            sp.field, [[int(i == j) for j in range(sp.d)] for i in range(sp.d)])])
    elif isinstance(data, list):
        raise ValueError("a bare generator list has no field metadata; "
                         "use {q, d, generators}")
    else:
        gens = group.GeneratorSet.deserialize(data, label=args.gens)
    part = group.orbits(sp, gens)
    if args.json:
        _emit(args, {"orbit_sizes": list(part.orbit_sizes),
                     "n_orbits": part.n_orbits})
    else:
        print(f"orbits={part.n_orbits} sizes={list(part.orbit_sizes)}")
    for label, rep in zip(part.orbit_labels, intriguing.classify_orbits(part)):
        if args.json:
            d = _report_dict(rep)
            d["label"] = label
            _emit(args, d)
        else:
            _print_report(rep, prefix="  ")
    return 0


def cmd_classify(args):
    sp = _build_space(args)
    with open(args.set) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        if "indices" not in data:
            raise ValueError("set file has no 'indices' entry")
        data = data["indices"]
    if not isinstance(data, list):
        raise ValueError("set file is not a list of point indices")
    rep = intriguing.classify(sp, polar.PointSet(sp, data))
    if args.json:
        _emit(args, _report_dict(rep))
    else:
        _print_report(rep)
    return 0


def cmd_reduce(args):
    large_kind, small_kind = fieldred.ROW_KINDS[args.row]
    if args.b < 1:
        raise ValueError(f"extension degree --b must be at least 1, got {args.b}")
    small = gf.field_of_order(args.q)
    large = gf.field_of_order(args.q ** args.b)
    form = forms.standard_form(large_kind, args.dim + 1, large)
    if not 0 < args.alpha < large.q:
        raise ValueError(f"alpha must be a unit code in [1, {large.q - 1}]")
    fr = fieldred.reduce(args.row, form, small, alpha=args.alpha)
    m1 = fieldred.blow_up(fr)
    rep = intriguing.classify(fr.small_space, m1)
    if args.json:
        _emit(args, {"row": args.row,
                     "large": fr.large_space.name,
                     "small": fr.small_space.name,
                     "large_points": fr.large_space.num_points,
                     "small_points": fr.small_space.num_points,
                     "m1": _report_dict(rep)})
    else:
        print(f"{fr.large_space.name} ({fr.large_space.num_points} points)"
              f" -> {fr.small_space.name} ({fr.small_space.num_points} points)")
        _print_report(rep, prefix="  M1: ")
    return 0


def _construct_partition(args, part):
    if args.json:
        _emit(args, {"orbit_sizes": list(part.orbit_sizes)})
    else:
        print(f"{part.space.name}: orbit sizes {list(part.orbit_sizes)}")
    for rep in intriguing.classify_orbits(part):
        if args.json:
            _emit(args, _report_dict(rep))
        else:
            _print_report(rep, prefix="  ")


# the optional flags each construction reads
_CONSTRUCT_FLAGS = {"adjoint-sl3": ("q",), "extsq-sp6": ("q",),
                    "dlength": ("kind", "q", "t"), "q43-splits": (), "sl2-5": ()}


def cmd_construct(args):
    name = args.name
    for flag in ("q", "kind", "t"):
        if getattr(args, flag) is not None and flag not in _CONSTRUCT_FLAGS[name]:
            raise ValueError(f"construct {name} does not take --{flag}")
    if name == "adjoint-sl3":
        am = cx.adjoint_sl3(3 if args.q is None else args.q)
        _construct_partition(args, am.orbits)
    elif name == "extsq-sp6":
        em = cx.extsq_sp6(3 if args.q is None else args.q)
        _construct_partition(args, em.orbits)
    elif name == "dlength":
        if None in (args.kind, args.q, args.t):
            raise ValueError("dlength needs --kind, --q and --t")
        dp = cx.dlength_partition(args.kind, args.q, args.t)
        for w, pset in dp.classes.items():
            rep = intriguing.classify(dp.space, pset)
            if args.json:
                d = _report_dict(rep)
                d["length"] = w
                _emit(args, d)
            else:
                _print_report(rep, prefix=f"  length {w}: ")
    elif name == "q43-splits":
        sp = cx.q43_monomial_splits()
        _construct_partition(args, sp["ovoid_split"])
        _construct_partition(args, sp["tight_split"])
    elif name == "sl2-5":
        gset = cx.sl2_5_in_sl2_9()
        fr, sets = cx.sl2_5_reduced_sets()
        if args.json:
            _emit(args, gset.serialize())
        else:
            print(f"generators: {[g.matrix for g in gset.elements[:2]]}")
        for s in sets:
            rep = intriguing.classify(fr.small_space, s)
            if args.json:
                _emit(args, _report_dict(rep))
            else:
                _print_report(rep, prefix="  on W(3,3): ")
    return 0


def _select_targets(args):
    suite = args.suite
    ids = {t.id for t in manifest.TARGETS}
    if suite in ids:
        chosen = [manifest.get(suite)]
    elif suite == "all":
        chosen = list(manifest.TARGETS)
    elif suite in ("fast", "slow"):
        chosen = [t for t in manifest.TARGETS if t.budget == suite]
    else:
        raise ValueError(f"unknown verification target {suite!r}")
    return chosen


def cmd_verify(args):
    chosen = _select_targets(args)
    reports = [manifest.run_target(t) for t in chosen]
    ok = True
    width = max((len(t.id) for t in chosen), default=4)
    for rep in reports:
        ok = ok and rep.match
        if args.json:
            _emit(args, rep.serialize())
        else:
            status = "PASS" if rep.match else "FAIL"
            print(f"{rep.target_id:<{width}}  {status}  "
                  f"({rep.wall_time:.1f}s)")
            if not rep.match:
                for key in sorted(set(rep.expected) | set(rep.computed)):
                    e, c = rep.expected.get(key), rep.computed.get(key)
                    if e != c:
                        print(f"  {key}: expected {e!r}")
                        print(f"  {key}: computed {c!r}")
    if not args.json:
        print(f"{sum(r.match for r in reports)}/{len(reports)} targets match")
    return 0 if ok else 1


# -- argument plumbing ------------------------------------------------------


def _space_flags(p):
    p.add_argument("--kind", required=True,
                   help="form kind: W, Q, Q+, Q-, H")
    p.add_argument("--dim", required=True, type=int,
                   help="projective dimension (vectors have dim+1 coordinates)")
    p.add_argument("--q", required=True, type=int, help="field order")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="polarkit",
        description="exact computations on finite classical polar spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="build a polar space and print r, theta, |P|")
    _space_flags(p)
    p.add_argument("--allow-grid", action="store_true",
                   help="permit the degenerate rank-2 hyperbolic grid")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("orbits", help="orbit partition from a generator file")
    _space_flags(p)
    p.add_argument("--gens", required=True, metavar="FILE",
                   help="JSON {q, d, generators: [matrix or "
                        "{matrix, sigma_power}]}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("classify", help="intriguing-set report for a point set")
    _space_flags(p)
    p.add_argument("--set", required=True, metavar="FILE",
                   help="JSON list of point indices (or {indices: [...]})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="field reduction of a standard form")
    p.add_argument("--row", required=True, type=int, choices=sorted(fieldred.ROW_KINDS),
                   help="reduction recipe row")
    p.add_argument("--q", required=True, type=int, help="small field order")
    p.add_argument("--b", required=True, type=int, help="extension degree")
    p.add_argument("--dim", required=True, type=int,
                   help="projective dimension of the large space")
    p.add_argument("--alpha", type=int, default=1,
                   help="form scalar before tracing (int code in the large"
                        " field, default 1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("construct", help="rebuild a named construction")
    p.add_argument("name", choices=["adjoint-sl3", "extsq-sp6", "dlength",
                                    "q43-splits", "sl2-5"])
    p.add_argument("--q", type=int)
    p.add_argument("--kind")
    p.add_argument("--t", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run compiled-in verification targets")
    p.add_argument("suite", nargs="?", default="fast",
                   help="fast (default), slow, all, or a target id")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
