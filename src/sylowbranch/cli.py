"""Command-line interface.

Commands:

  sbc       one branching coefficient
  lin       linear constituents with multiplicities
  restrict  the full restriction vector (json or tsv)
  classify  per-shape table: engine count vs classification
  table     the almost-hook coefficient grid as TSV
  verify    named verification sweeps (or "all")

Exit codes: 1 usage error, 2 domain error (malformed partition or label,
size mismatch, p not a prime), 3 element budget exceeded, 4 verification
failure.

Partitions are written as comma-separated parts with optional power
shorthand: "8,2,1^6".  Linear labels are dotted digit strings per tower
factor, innermost digit first, factors joined by "|" in ascending factor
order ("e" for the trivial factor); at p = 2 with a single tower factor the
hook form "y=3" is also accepted, and `lin` prints that form.
"""

import argparse
import json
import sys

from . import closedform as cf
from . import engine
from . import tower as tw
from . import verify as ver
from .partitions import format_partition, parse_partition, partitions, sylow_shape

USAGE_EXIT = 1
DOMAIN_EXIT = 2
BUDGET_EXIT = 3
VERIFY_EXIT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_linear(text, p, heights):
    """Digit-string (or y=) text form to a tuple of per-factor digit tuples."""
    text = text.strip()
    if text.startswith("y="):
        if p != 2 or len(heights) != 1:
            raise ValueError("the y= form needs p=2 and a single tower factor")
        return (tw.hook_to_linear(heights[0], int(text[2:])),)
    factors = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if chunk == "e" or chunk == "":
            factors.append(())
            continue
        digits = tuple(int(d) for d in chunk.split("."))
        if any(not 0 <= d < p for d in digits):
            raise ValueError(f"digits out of range for p={p}: {chunk}")
        factors.append(digits)
    if len(factors) == 1 and len(heights) > 1:
        raise ValueError(f"expected {len(heights)} factors separated by '|'")
    return tuple(factors)


def _linear_text(psi):
    return "|".join(".".join(str(d) for d in f) if f else "e" for f in psi)


def cmd_sbc(args):
    la = parse_partition(args.la)
    heights = sylow_shape(sum(la), args.p)
    psi = _parse_linear(args.linear, args.p, heights)
    if args.cache:
        engine.load_cache(args.cache, missing_ok=True)
    value = engine.sbc(la, args.p, psi)
    if args.cache:
        engine.save_cache(args.cache)
    print(value)


def cmd_lin(args):
    la = parse_partition(args.la)
    heights = sylow_shape(sum(la), args.p)
    if args.cache:
        engine.load_cache(args.cache, missing_ok=True)
    lc = engine.lin_constituents(la, args.p)
    if args.cache:
        engine.save_cache(args.cache)
    if args.p == 2 and len(heights) == 1:
        k = heights[0]
        pairs = sorted((tw.linear_to_hook(k, f[0]), m) for f, m in lc.items())
        print(", ".join(f"y={y}:{m}" for y, m in pairs))
    else:
        pairs = sorted((psi, m) for psi, m in lc.items())
        print(", ".join(f"{_linear_text(psi)}:{m}" for psi, m in pairs))


def cmd_restrict(args):
    la = parse_partition(args.la)
    p = args.p
    heights = sylow_shape(sum(la), p)
    if args.cache:
        engine.load_cache(args.cache, missing_ok=True)
    vec = engine.restrict_sylow(la, p)
    if args.cache:
        engine.save_cache(args.cache)
    rows = []
    for labels, m in vec.items():
        deg = 1
        for lab in labels:
            deg *= tw.label_degree(p, lab)
        text = "|".join(tw.label_text(lab) for lab in labels)
        rows.append((deg, text, m))
    rows.sort(key=lambda r: (r[0], r[1]))
    if args.format == "json":
        doc = {
            "p": p,
            "n": sum(la),
            "lambda": list(la),
            "entries": [
                {"degree": deg, "label": text, "mult": m} for deg, text, m in rows
            ],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print("label\tdegree\tmult")
        for deg, text, m in rows:
            print(f"{text}\t{deg}\t{m}")


def cmd_classify(args):
    p, n = args.p, args.n
    cf.check_classification_domain(p, n)
    print("lambda\tengine\tpredicted\tcase\tstatus")
    mismatches = 0
    for la in partitions(n):
        out, cnt, ok = ver.check_classification(p, n, la)
        mismatches += not ok
        flag = "ok" if ok else "MISMATCH"
        print(f"{format_partition(la)}\t{cnt}\t{out.count}\t{out.case}\t{flag}")
    if mismatches:
        raise _VerificationFailed(f"{mismatches} classification mismatches")


def cmd_table(args):
    name = ver.ALIASES.get(args.name, args.name)
    if name != "hook-grid":
        raise ValueError(f"unknown table {args.name!r} (available: hook-grid)")
    from .partitions import almost_hook

    k = args.k
    n = 2**k
    print("x\ty\tB(y)\tformula\tengine")
    for x in range(n - 3):
        la = almost_hook(n, x)
        for y in range(n):
            f = cf.almost_hook_sbc(k, x, y)
            e = engine.sbc(la, 2, tw.hook_to_linear(k, y))
            print(f"{x}\t{y}\t{cf.window_base(y)}\t{f}\t{e}")


def cmd_verify(args):
    names = None if args.suite == "all" else [args.suite]
    if names and ver.ALIASES.get(names[0], names[0]) not in ver.SUITES:
        raise ValueError(
            f"unknown suite {args.suite!r} (available: {', '.join(ver.SUITES)}, all)"
        )
    results = ver.run(names, n_max=args.n_max, seed=args.seed)
    sys.stdout.flush()
    if not all(r.ok for r in results):
        raise _VerificationFailed("verification failed")


class _VerificationFailed(RuntimeError):
    pass


def _build_parser():
    top = _Parser(prog="sylowbranch", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p_):
        p_.add_argument("--p", type=int, default=2, help="prime (default 2)")
        p_.add_argument("--lambda", dest="la", required=True, help='partition, e.g. "8,2,1^6"')
        p_.add_argument("--cache", help="JSON cache file for restriction vectors")

    p_sbc = sub.add_parser("sbc", help="one branching coefficient")
    common(p_sbc)
    p_sbc.add_argument("--linear", required=True, help='linear label, e.g. "0.1.1" or "y=3"')
    p_sbc.set_defaults(fn=cmd_sbc)

    p_lin = sub.add_parser("lin", help="linear constituents with multiplicities")
    common(p_lin)
    p_lin.set_defaults(fn=cmd_lin)

    p_res = sub.add_parser("restrict", help="full restriction vector")
    common(p_res)
    p_res.add_argument("--format", choices=("json", "tsv"), default="tsv")
    p_res.set_defaults(fn=cmd_restrict)

    p_cls = sub.add_parser("classify", help="engine count vs classification for all shapes of n")
    p_cls.add_argument("--p", type=int, default=2)
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.set_defaults(fn=cmd_classify)

    p_tab = sub.add_parser("table", help="almost-hook coefficient grid as TSV")
    p_tab.add_argument("name", nargs="?", default="hook-grid")
    p_tab.add_argument("--k", type=int, default=4)
    p_tab.set_defaults(fn=cmd_table)

    p_ver = sub.add_parser("verify", help="run a named verification sweep")
    p_ver.add_argument("suite", nargs="?", default="all")
    p_ver.add_argument("--n-max", type=int, default=None, help="cap for the p=2 classification sweep")
    p_ver.add_argument("--seed", type=int, default=None, help="seed for sampled checks")
    p_ver.add_argument("--budget", type=int, default=None, help="element-enumeration budget override")
    p_ver.set_defaults(fn=cmd_verify)
    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) is not None:
        import os

        os.environ["SYLOW_BRANCH_BUDGET"] = str(args.budget)
    try:
        args.fn(args)
    except _VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_EXIT
    except tw.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXIT
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
