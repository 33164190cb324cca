"""Command line front end: enumerate roots and Hessenberg spaces, pave a
Hessenberg variety, and cross-verify the independent computation paths.

Exit codes: 0 success, 2 configuration error, 3 verification failure,
4 resource cap hit.
"""

from __future__ import annotations

import argparse
import json
import sys

from .hessenberg import (
    HessenbergSpace,
    HessFunction,
    borel_space,
    enumerate_spaces,
    from_h,
    full_space,
    peterson_space,
    to_h,
)
from .operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
    canonical_form,
    levi_roots,
    multidiagram_of,
)
from .paving import (
    OracleDisagreement,
    cell_report,
    hess_label,
    pave,
    result_to_json,
    spec_label,
)
from .rootsys import (
    ResourceCapError,
    Root,
    RootSystemId,
    negative_roots,
    positive_roots,
    row_of,
    row_partition,
    row_structure_kind,
    verticality_check,
)
from .weyl import _check_order, enumerate_weyl

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4


class ConfigError(Exception):
    pass


def _system(args) -> RootSystemId:
    try:
        return RootSystemId(args.family, args.rank)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _operator(args, system: RootSystemId):
    chosen = [
        name for name in ("regular_nilpotent", "nilpotent", "general", "semisimple")
        if getattr(args, name)
    ]
    if len(chosen) != 1:
        raise ConfigError("give exactly one operator flag")
    try:
        if args.regular_nilpotent:
            return RegularNilpotent()
        if args.nilpotent:
            mu = tuple(int(t) for t in args.nilpotent.split(","))
            spec = TypeANilpotent(mu)
        elif args.general:
            blocks = []
            for part in args.general.split("|"):
                label, _, mus = part.partition(":")
                if not mus:
                    raise ConfigError(f"bad eigenvalue block {part!r}")
                blocks.append((label, tuple(int(t) for t in mus.split(","))))
            spec = TypeAGeneral(tuple(blocks))
        else:
            if args.semisimple == "regular":
                return SemisimpleClassical(())
            spec = SemisimpleClassical(tuple(
                tuple(int(t) for t in block.split(","))
                for block in args.semisimple.split(";")
            ))
        # surface shape errors (wrong family, wrong total, bad blocks) now
        canonical_form(spec, system)
        levi_roots(spec, system)
        return spec
    except (ValueError, ConfigError) as e:
        raise ConfigError(str(e)) from None


def _hess(text: str, system: RootSystemId) -> HessenbergSpace:
    try:
        if text == "peterson":
            return peterson_space(system)
        if text == "borel":
            return borel_space(system)
        if text == "full":
            return full_space(system)
        if text.startswith("h="):
            if system.family != "A":
                raise ConfigError("h=... works only with --family A")
            h = HessFunction.parse(text[2:])
            if h.n != system.rank + 1:
                raise ConfigError(
                    f"h has {h.n} entries, expected {system.rank + 1}"
                )
            return from_h(h)
        if text.startswith("neg="):
            roots = set(positive_roots(system))
            if text != "neg=":
                negative = set(negative_roots(system))
                for part in text[4:].split(";"):
                    r = Root(tuple(int(t) for t in part.split(",")))
                    if r not in negative:
                        raise ConfigError(f"{part} is not a negative root of {system}")
                    roots.add(r)
            return HessenbergSpace(system, frozenset(roots))
    except (ValueError, ConfigError) as e:
        raise ConfigError(str(e)) from None
    raise ConfigError(f"cannot parse Hessenberg input {text!r}")


def _hess_text(H: HessenbergSpace) -> str:
    if H.system.family == "A":
        return f"h={to_h(H)}"
    return str(H)


def _window_str(pi) -> str:
    return " ".join(str(w) for w in pi.window)


def cmd_roots(args) -> int:
    system = _system(args)
    rp = row_partition(system)
    roots = positive_roots(system)
    if args.format == "json":
        obj = {
            "family": system.family,
            "rank": system.rank,
            "count": len(roots),
            "vertical": verticality_check(rp),
            "roots": [
                {"coeffs": list(a.coeffs), "row": row_of(a), "height": a.height}
                for a in roots
            ],
            "rows": [
                {
                    "index": i,
                    "size": len(rp.rows[i - 1]),
                    "kind": row_structure_kind(system, i),
                    "long_root": (
                        list(rp.long_root[i - 1].coeffs)
                        if rp.long_root[i - 1] else None
                    ),
                }
                for i in range(1, system.rank + 1)
            ],
        }
        print(json.dumps(obj, indent=2))
        return EXIT_OK
    print(f"{system}: {len(roots)} positive roots, {system.rank} rows, "
          f"vertical={verticality_check(rp)}")
    for i in range(1, system.rank + 1):
        kind = row_structure_kind(system, i)
        members = " ".join(str(a) for a in rp.rows[i - 1])
        extra = ""
        if rp.long_root[i - 1]:
            extra = f" long={rp.long_root[i - 1]}"
        print(f"row {i} ({kind}{extra}): {members}")
    return EXIT_OK


def cmd_spaces(args) -> int:
    system = _system(args)
    spaces = enumerate_spaces(system)
    if args.format == "json":
        obj = {
            "family": system.family,
            "rank": system.rank,
            "count": len(spaces),
            "spaces": [hess_label(H) for H in spaces],
        }
        print(json.dumps(obj, indent=2))
        return EXIT_OK
    print(f"{system}: {len(spaces)} Hessenberg spaces")
    if args.list:
        for H in spaces:
            print(_hess_text(H))
    return EXIT_OK


def cmd_pave(args) -> int:
    system = _system(args)
    spec = _operator(args, system)
    if not args.hess:
        raise ConfigError("pave needs --hess")
    _check_order(system)
    H = _hess(args.hess, system)
    if args.method == "tableau" and not _tableau_applies(spec, system):
        raise ConfigError(f"no tableau path for {spec_label(spec)} in {system}")
    try:
        result = pave(spec, system, H, method=args.method,
                      seed=args.seed, trials=args.trials, jobs=args.jobs)
    except OracleDisagreement as e:
        code = f" ({e.reason})" if e.reason else ""
        print(f"oracle could not certify a dimension at pi=[{_window_str(e.pi)}]"
              f"{code}", file=sys.stderr)
        return EXIT_VERIFY
    if args.format == "json":
        print(result_to_json(spec, H, result))
        return EXIT_OK
    if args.format == "csv":
        print("window,length,nonempty,dim")
        for r in result.reports:
            dim = "" if r.dim is None else r.dim
            print(f"{_window_str(r.pi)},{r.pi.length()},{r.nonempty},{dim}")
        return EXIT_OK
    print(f"{system} operator={spec_label(spec)} {_hess_text(H)} "
          f"method={args.method}")
    for r in result.reports:
        tail = f"dim={r.dim}" if r.nonempty else "empty"
        print(f"pi=[{_window_str(r.pi)}] len={r.pi.length()} {tail}")
    print(f"poincare: {result.polynomial}")
    print(f"euler: {result.polynomial.euler_characteristic()}")
    return EXIT_OK


def _tableau_applies(spec, system: RootSystemId) -> bool:
    try:
        multidiagram_of(spec, system)
    except ValueError:
        return False
    return True


def cmd_verify(args) -> int:
    system = _system(args)
    spec = _operator(args, system)
    if bool(args.all_hess) == bool(args.hess):
        raise ConfigError("verify needs exactly one of --hess and --all-hess")
    _check_order(system)
    if args.all_hess:
        spaces = enumerate_spaces(system)
    else:
        spaces = (_hess(args.hess, system),)
    use_tableau = _tableau_applies(spec, system)
    paths = ["formula", "tableau", "oracle"] if use_tableau else ["formula", "oracle"]
    W = enumerate_weyl(system)
    for H in spaces:
        label = _hess_text(H)
        for pi in W:
            outcomes = []
            for method in paths:
                try:
                    r = cell_report(spec, system, H, pi, method,
                                    seed=args.seed, trials=args.trials)
                except OracleDisagreement as e:
                    outcomes.append((method, ("inconsistent", e.reason)))
                    continue
                outcomes.append((method, (r.nonempty, r.dim)))
            if len({o for _, o in outcomes}) != 1:
                detail = " ".join(f"{m}={o}" for m, o in outcomes)
                print(f"FAIL hess={label} pi=[{_window_str(pi)}] {detail}")
                return EXIT_VERIFY
        print(f"pass hess={label} ({len(W)} cells, paths: {', '.join(paths)})")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--family", required=True, choices=("A", "B", "C", "D"))
    p.add_argument(
        "--rank", required=True, type=int,
        help="rank n of the root system; --family A --rank n means A_n, "
             "the group GL_{n+1}, so type-A partitions must sum to n+1",
    )


def _add_operator(p):
    p.add_argument("--regular-nilpotent", action="store_true",
                   help="N = sum of simple root vectors (any family)")
    p.add_argument("--nilpotent", metavar="MU",
                   help="type-A nilpotent of Jordan type MU, e.g. 2,1")
    p.add_argument("--general", metavar="BLOCKS",
                   help="type-A operator, one Jordan type per eigenvalue "
                        "label, e.g. x:2,1|y:1")
    p.add_argument("--semisimple", metavar="SPEC",
                   help="semisimple operator: 'regular' or simple-root "
                        "index blocks like 1;2,3")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_paving(p):
    p.add_argument("--hess", metavar="H",
                   help="Hessenberg space: h=2,3,3 (type A), peterson, "
                        "borel, full, or neg=-1,0;0,-1 listing the negative "
                        "part by coefficient vectors")
    p.add_argument("--seed", type=int, default=0, help="seeds the oracle path")
    p.add_argument("--trials", type=_positive_int, default=5,
                   help="solver trials per cell (oracle path)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hesspave",
        description="Affine pavings of Hessenberg varieties in the "
                    "classical families.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="positive roots, rows and heights")
    _add_common(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("spaces", help="enumerate Hessenberg spaces")
    _add_common(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--list", action="store_true", help="print every space")
    p.set_defaults(func=cmd_spaces)

    p = sub.add_parser("pave", help="cells and Poincare polynomial")
    _add_common(p)
    _add_operator(p)
    _add_paving(p)
    p.add_argument("--method", choices=("formula", "tableau", "oracle"),
                   default="formula")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel workers, capped at the usable CPUs; worth "
                        "it for --method oracle, while formula cells are too "
                        "cheap to pay for the pool; output order is always "
                        "the deterministic Weyl enumeration order")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_pave)

    p = sub.add_parser("verify", help="cross-check the computation paths")
    _add_common(p)
    _add_operator(p)
    _add_paving(p)
    p.add_argument("--all-hess", action="store_true",
                   help="verify every Hessenberg space of the system")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
