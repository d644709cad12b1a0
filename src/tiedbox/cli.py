"""Command-line harness.

Every command emits line records (one JSON object per line, default) or a
plain text table (``--format table``).  Each record carries a ``status``
field; the process exit code is 0 when everything passed, 1 when any record
failed, and 2 when the only non-passes are inconclusive.  A search that
exhausts its budget gives one inconclusive record.  Usage errors exit with
code 64.
"""

import argparse
import json
import sys

from . import checks, ramified
from .algebras import (
    BHAlgebra,
    BTAlgebra,
    BTLAlgebra,
    HeckeAlgebra,
    TLAlgebra,
    basis_index,
)
from .cellular import (
    bh_cellular,
    btl_cellular,
    murphy_hecke,
    star_axiom_check,
    tl_cellular,
    transition_matrix,
)
from .diagrams import (
    BudgetExceeded,
    brauer_monoid,
    jones_monoid,
    partition_monoid,
)
from .laurent import LaurentPoly, matrix_rank
from .presentations import PRESET_NAMES, build_preset, presentation_check

MONOIDS = {
    "jones": jones_monoid,
    "brauer": brauer_monoid,
    "partition": partition_monoid,
    "r-symmetric": ramified.r_symmetric,
    "sr-symmetric": ramified.sr_symmetric,
    "br-symmetric": ramified.br_symmetric,
    "br-jones": ramified.br_jones,
    "br-brauer": ramified.br_brauer,
    "br-partition": ramified.br_partition,
}

ALGEBRAS = {
    "hecke": HeckeAlgebra,
    "tl": TLAlgebra,
    "tied": BTAlgebra,
    "bh": BHAlgebra,
    "btl": BTLAlgebra,
}

CELLULAR = {
    "hecke-murphy": murphy_hecke,
    "bh": bh_cellular,
    "btl": btl_cellular,
    "tl": tl_cellular,
}

def nonnegative_int(text):
    """The argparse type of every strand count (--n, --max-n)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(64)


def format_element(x, index):
    if not x.terms:
        return "0"
    parts = []
    for key in sorted(x.terms, key=lambda k: index[k]):
        parts.append(f"({x.terms[key]}) * {index[key]}")
    return " + ".join(parts)


def parse_element(algebra, text):
    """Parse a `(coeff) * basis-index` term list, e.g. `(1*q^1) * 0 + (-1*q^0) * 4`."""
    basis = algebra.basis()
    out = algebra.zero()
    text = text.strip()
    if text == "0":
        return out
    for term in text.split(" + "):
        term = term.strip()
        if not (term.startswith("(") and ") * " in term):
            raise ValueError(f"bad term {term!r}: expected `(coeff) * index`")
        coeff_text, idx_text = term[1:].rsplit(") * ", 1)
        idx = int(idx_text)
        if not 0 <= idx < len(basis):
            raise ValueError(f"basis index {idx} out of range for dim {len(basis)}")
        out = out + algebra.basis_element(basis[idx]).scale(
            LaurentPoly.parse(coeff_text))
    return out


def emit(records, args):
    lines = []
    if args.format == "table":
        for r in records:
            fields = "  ".join(f"{k}={r[k]}" for k in r if k != "name")
            lines.append(f"{r.get('name', '-'):48s} {fields}")
    else:
        lines = [json.dumps(r, default=str, sort_keys=True) for r in records]
    text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def exit_code(records):
    statuses = {r.get("status", "pass") for r in records}
    if any(s == "fail" for s in statuses):
        return 1
    if any(s != "pass" for s in statuses):
        return 2
    return 0


def cmd_enumerate(args):
    family = MONOIDS[args.monoid]
    elements = family(args.n)
    records = [{"name": f"enumerate:{args.monoid}:n={args.n}",
                "count": len(elements), "status": "pass"}]
    if args.ramified:
        for x in sorted(str(e) for e in elements):
            records.append({"element": x, "status": "pass"})
    return records


def cmd_present_check(args):
    report = presentation_check(*build_preset(args.preset, args.n))
    report = dict(report)
    report.setdefault("name", f"present:{args.preset}:n={args.n}")
    return [report]


def cmd_dim(args):
    records = []
    for n in range(1, args.max_n + 1):
        records.append({"name": f"dim:{args.family}:n={n}",
                        "dim": ALGEBRAS[args.family](n).dim(), "status": "pass"})
    return records


def cmd_multiply(args):
    algebra = ALGEBRAS[args.algebra](args.n)
    index = basis_index(algebra)
    x = parse_element(algebra, args.lhs)
    y = parse_element(algebra, args.rhs)
    return [{"name": f"multiply:{args.algebra}:n={args.n}",
             "lhs": format_element(x, index), "rhs": format_element(y, index),
             "product": format_element(x * y, index), "status": "pass"}]


def cmd_cellular(args):
    datum = CELLULAR[args.family](args.n)
    records = [{"name": f"cellular:{args.family}:count:n={args.n}",
                "expected": datum.algebra.dim(), "got": datum.size(),
                "status": "pass" if datum.size() == datum.algebra.dim() else "fail"}]
    if args.n <= 3:
        rows, _, _ = transition_matrix(datum)
        rank = matrix_rank(rows, mode="exact")
        records.append({"name": f"cellular:{args.family}:full-rank:n={args.n}",
                        "expected": datum.size(), "got": rank,
                        "status": "pass" if rank == datum.size() else "fail"})
        records.append(dict(star_axiom_check(datum),
                            name=f"cellular:{args.family}:star:n={args.n}"))
    return records


def cmd_rep_check(args):
    return checks.check_representation(seed=args.seed)


def cmd_idempotent_check(args):
    return checks.check_idempotents(quick=args.profile == "quick")


def cmd_center(args):
    elements = ramified.center(MONOIDS[args.monoid](args.n))
    records = [{"name": f"center:{args.monoid}:n={args.n}",
                "count": len(elements), "status": "pass"}]
    for x in sorted(str(e) for e in elements):
        records.append({"element": x, "status": "pass"})
    return records


NORMAL_FORMS = {
    "br-symmetric": ramified.normal_form_brs,
    "sr-symmetric": ramified.normal_form_srs,
    "br-brauer": ramified.normal_form_brbr,
}


def cmd_normal_form(args):
    x = ramified.Ramified.parse(args.element)
    nf = NORMAL_FORMS[args.monoid](x)
    ok = ramified.evaluate_normal_form(nf) == x
    rec = {"name": f"normal-form:{args.monoid}", "element": str(x)}
    rec.update({k: v for k, v in nf.items() if k != "n"})
    rec["status"] = "pass" if ok else "fail"
    return [rec]


def cmd_verify_all(args):
    return checks.run_all(profile=args.profile, seed=args.seed)


def main(argv=None):
    parser = _Parser(prog="tiedbox",
                     description="Exact verification workbench for ramified "
                                 "partition monoids and tied algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("jsonl", "table"), default="jsonl")
        p.add_argument("--out", default=None, help="write records to this file")
        return p

    p = add("enumerate", cmd_enumerate, help="count a monoid family")
    p.add_argument("--monoid", choices=sorted(MONOIDS), required=True)
    p.add_argument("--n", type=nonnegative_int, required=True)
    p.add_argument("--ramified", action="store_true",
                   help="also emit one element per line in text encoding")

    p = add("present-check", cmd_present_check,
            help="verify a monoid presentation by rewriting")
    p.add_argument("--preset", choices=PRESET_NAMES, required=True)
    p.add_argument("--n", type=nonnegative_int, required=True)

    p = add("dim", cmd_dim, help="dimension table by basis enumeration")
    p.add_argument("--family", choices=sorted(ALGEBRAS), required=True)
    p.add_argument("--max-n", type=nonnegative_int, required=True)

    p = add("multiply", cmd_multiply, help="multiply two algebra elements")
    p.add_argument("--algebra", choices=sorted(ALGEBRAS), required=True)
    p.add_argument("--n", type=nonnegative_int, required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = add("cellular", cmd_cellular, help="build and validate a cellular basis")
    p.add_argument("--family", choices=sorted(CELLULAR), required=True)
    p.add_argument("--n", type=nonnegative_int, required=True)

    add("rep-check", cmd_rep_check, help="tensor representation oracle checks")

    p = add("idempotent-check", cmd_idempotent_check,
            help="central orthogonal idempotent suite")
    p.add_argument("--profile", choices=("quick", "full"), default="full")

    p = add("center", cmd_center, help="center of a ramified monoid")
    p.add_argument("--monoid", choices=sorted(MONOIDS), required=True)
    p.add_argument("--n", type=nonnegative_int, required=True)

    p = add("normal-form", cmd_normal_form,
            help="normal form of a ramified element")
    p.add_argument("--monoid", choices=sorted(NORMAL_FORMS), required=True)
    p.add_argument("--element", required=True,
                   help="text encoding `n; blocks ; blocks`")

    p = add("verify-all", cmd_verify_all, help="run the full acceptance matrix")
    p.add_argument("--profile", choices=("quick", "full"), default="full")

    # the two commands that run a probabilistic rank pre-pass
    for name in ("rep-check", "verify-all"):
        sub.choices[name].add_argument(
            "--seed", type=int, default=0,
            help="seed for probabilistic rank pre-passes")

    args = parser.parse_args(argv)
    try:
        records = args.fn(args)
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"tiedbox: error: {exc}\n")
        return 64
    except BudgetExceeded as exc:
        records = [{"name": args.command, "status": "inconclusive",
                    "reason": str(exc)}]
    emit(records, args)
    return exit_code(records)


if __name__ == "__main__":
    sys.exit(main())
