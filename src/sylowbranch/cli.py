"""Command-line interface.

Commands:

  sbc       one branching coefficient
  lin       linear constituents with multiplicities
  restrict  the full restriction vector (json or tsv)
  classify  per-shape table: engine count vs classification
  table     the almost-hook coefficient grid as TSV
  verify    named verification sweeps (or "all")

Exit codes: 1 usage error, 2 domain error (malformed or empty partition or
label, size mismatch, table --k below 2, verify --n-max below 4, p not a
prime, corrupt cache, a cache file that cannot be read or written, input
too large for the recursion depth), 3 oracle budget on |P_n| exceeded,
4 verification failure.

Only restrict reads and writes the --cache file; it writes it only when the
file is new or the run computed a full vector the file did not hold.  lin
and sbc accept --cache and leave the file alone, because the linear slice
reads no full vector.

Partitions are written as comma-separated parts with optional power
shorthand: "8,2,1^6".  Linear labels are dotted digit strings per tower
factor, innermost digit first, factors joined by "|" in ascending factor
order ("e" for the trivial factor); at p = 2 with a single tower factor the
hook form "y=3" is also accepted, and `lin` prints that form.
"""

import argparse
import json
import os
import sys

from . import closedform as cf
from . import engine
from . import tower as tw
from . import verify as ver
from .partitions import almost_hook, format_partition, parse_partition, partitions, sylow_shape

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
        label = tw.parse_label(chunk.strip() or "e")
        tw.label_height(p, label)  # rejects a digit outside range(p)
        digits = tw.linear_digits(label)
        if digits is None:
            raise ValueError(f"not a linear label: {chunk.strip()}")
        factors.append(digits)
    return tuple(factors)


def _parse_shape(text):
    la = parse_partition(text)
    if not la:
        raise ValueError("the partition must be nonempty")
    return la


def _linear_text(psi):
    return "|".join(tw.label_text(tw.linear_label(f)) for f in psi)


def cmd_sbc(args):
    la = _parse_shape(args.la)
    heights = sylow_shape(sum(la), args.p)
    psi = _parse_linear(args.linear, args.p, heights)
    print(engine.sbc(la, args.p, psi))


def cmd_lin(args):
    la = _parse_shape(args.la)
    heights = sylow_shape(sum(la), args.p)
    lc = engine.lin_constituents(la, args.p)
    if args.p == 2 and len(heights) == 1:
        pairs = sorted((tw.linear_to_hook(heights[0], f[0]), m) for f, m in lc.items())
        print(", ".join(f"y={y}:{m}" for y, m in pairs))
    else:
        print(", ".join(f"{_linear_text(psi)}:{m}" for psi, m in sorted(lc.items())))


def cmd_restrict(args):
    la = _parse_shape(args.la)
    p, path = args.p, args.cache
    sylow_shape(sum(la), p)  # p is checked before the cache file is read
    # save_cache output is deterministic, so a skipped write leaves the same
    # bytes; an OSError on the file is a domain error
    try:
        fresh = bool(path) and not os.path.exists(path)
        if path and not fresh:
            engine.load_cache(path)
        size = len(engine._full_memo)
        vec = engine.restrict_sylow(la, p)
        if fresh or (path and len(engine._full_memo) > size):
            engine.save_cache(path)
    except OSError as exc:
        raise ValueError(f"cache file {path}: {exc.strerror or exc}") from exc
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
    k = args.k
    if k < 2:
        raise ValueError(f"the almost-hook grid needs k >= 2, got {k}")
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
    if args.n_max is not None and args.n_max < 4:
        # the p=2 classification sweep starts at n=4, so it would check nothing
        raise ValueError(f"--n-max must be at least 4, got {args.n_max}")
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
        p_.add_argument("--cache", help="JSON cache of full restriction vectors (restrict only reads and writes it)")

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
    p_ver.add_argument("--budget", type=int, default=None, help="override the oracle budget on |P_n|")
    p_ver.set_defaults(fn=cmd_verify)
    return top


_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    saved = os.environ.get("SYLOW_BRANCH_BUDGET")
    if getattr(args, "budget", None) is not None:
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
    except RecursionError:
        print(f"error: input too large: recursion deeper than {sys.getrecursionlimit()}", file=sys.stderr)
        return DOMAIN_EXIT
    finally:
        if saved is None:
            os.environ.pop("SYLOW_BRANCH_BUDGET", None)
        else:
            os.environ["SYLOW_BRANCH_BUDGET"] = saved
    return 0


if __name__ == "__main__":
    sys.exit(main())
