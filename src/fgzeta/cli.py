"""Command line front end.

Subcommands wire the exact pipeline together: ``an`` prints trace counts,
``g`` and ``zeta`` the derived series, ``euler`` the Euler product with
an equality verdict against the exp pipeline, ``guess`` and ``verify``
handle annihilating polynomials, and ``selfcheck`` runs a seeded
invariant suite.  All data goes to stdout, diagnostics to stderr; exit
codes are 0 (success), 1 (parse error), 2 (validation error) and
3 (resource guard tripped).
"""

import argparse
import random
import re
import sys
from fractions import Fraction

from .algebra import AlgebraElement, format_element, parse_element
from .cyclic import alphabet_of, cycle_weight, cycle_weight_sum, euler_product
from .errors import ParseError, ResourceLimitError, ValidationError
from .families import (D_BY_D, KONTSEVICH, builtin_matrix,
                       parse_builtin_name, random_element, random_matrix,
                       random_reduced_word)
from .guess import (evaluate_at_series, format_bivariate, guess_annihilator,
                    parse_bivariate, required_order)
from .matrix import (DEFAULT_TERM_LIMIT, AlgebraMatrix, power_trace_counts,
                     trace_count_by_paths, trace_counts)
from .series import TruncatedSeries, format_series, generating_series, zeta_series
from .words import (MAX_DOCUMENT_LETTERS, GeneratorTable, LetterBudget, concat,
                    invert)


# Largest matrix document dimension; the parser allocates dim^2 entries
# before it reads any of them.
MAX_DIMENSION = 500

_ASSIGN_RE = re.compile(r"\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.*)$")
_DIM_RE = re.compile(r"dim\s+(\d+)\s*$")


def parse_matrix_document(text: str) -> AlgebraMatrix:
    """Parse the matrix DSL: a ``dim <d>`` header, then ``[i,j] = <poly>``.

    Unassigned entries are zero; duplicate assignments are rejected;
    generators are declared implicitly in order of first appearance.  All
    words together may spell at most words.MAX_DOCUMENT_LETTERS letters.
    """
    table = GeneratorTable()
    budget = LetterBudget()
    dim = None
    entries = None
    seen = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            m = _DIM_RE.match(line)
            if not m:
                raise ParseError("expected a 'dim <d>' header", line=ln)
            dim = int(m.group(1))
            if dim < 1:
                raise ParseError("dimension must be >= 1", line=ln)
            if dim > MAX_DIMENSION:
                raise ResourceLimitError(
                    f"line {ln}: dimension {dim} exceeds the limit "
                    f"MAX_DIMENSION = {MAX_DIMENSION}")
            entries = [[AlgebraElement.zero() for _ in range(dim)]
                       for _ in range(dim)]
            continue
        m = _ASSIGN_RE.match(line)
        if not m:
            raise ParseError("expected '[i,j] = <polynomial>'", line=ln,
                             column=1)
        i, j = int(m.group(1)), int(m.group(2))
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ParseError(f"entry index ({i},{j}) outside dim {dim}",
                             line=ln)
        if (i, j) in seen:
            raise ParseError(f"duplicate assignment for entry ({i},{j})",
                             line=ln)
        seen.add((i, j))
        try:
            entries[i - 1][j - 1] = parse_element(m.group(3), table,
                                                  budget=budget)
        except ParseError as exc:
            raise ParseError(str(exc), line=ln) from None
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"line {ln}: {exc}") from None
    if dim is None:
        raise ParseError("empty matrix document")
    return AlgebraMatrix(entries, table)


def format_matrix_document(m: AlgebraMatrix) -> str:
    """Canonical display; zero entries are omitted."""
    lines = [f"dim {m.dim}"]
    for i in range(m.dim):
        for j in range(m.dim):
            e = m.entries[i][j]
            if not e.is_zero():
                lines.append(f"[{i + 1},{j + 1}] = {format_element(e, m.table)}")
    return "\n".join(lines)


def check_builtin_size(name: str):
    """Refuse a built-in larger than a matrix document may be, before it
    is built: ``paperdxd:d`` above MAX_DIMENSION, or one that spells more
    than MAX_DOCUMENT_LETTERS letters (2n for ``kontsevich:n``, d^2 for
    ``paperdxd:d``)."""
    family, arg = parse_builtin_name(name)
    if arg is None or arg < 1:
        return  # fixed size, or refused by its builder
    if family == D_BY_D and arg > MAX_DIMENSION:
        raise ResourceLimitError(
            f"{name}: dimension {arg} exceeds the limit "
            f"MAX_DIMENSION = {MAX_DIMENSION}")
    letters = 2 * arg if family == KONTSEVICH else arg * arg
    if letters > MAX_DOCUMENT_LETTERS:
        raise ResourceLimitError(
            f"{name} spells {letters} letters, more than "
            f"MAX_DOCUMENT_LETTERS = {MAX_DOCUMENT_LETTERS}")


def _load_matrix(args) -> AlgebraMatrix:
    if args.builtin:
        check_builtin_size(args.builtin)
        return builtin_matrix(args.builtin)
    if args.matrix == "-":
        return parse_matrix_document(sys.stdin.read())
    with open(args.matrix, encoding="utf-8") as handle:
        return parse_matrix_document(handle.read())


def _emit(text: str):
    sys.stdout.write(text + "\n")


def _counts(args):
    m = _load_matrix(args)
    try:
        return trace_counts(m, args.order, max_terms=args.max_terms)
    except ResourceLimitError as exc:
        raise ResourceLimitError(
            f"the count engine runs to order {args.order} (--order): "
            f"{exc}") from None


def cmd_an(args) -> int:
    counts = _counts(args)
    for n, c in enumerate(counts, start=1):
        _emit(f"{n}: {c}")
    return 0


def cmd_g(args) -> int:
    counts = _counts(args)
    _emit(format_series(generating_series(counts)))
    return 0


def cmd_zeta(args) -> int:
    counts = _counts(args)
    _emit(format_series(zeta_series(counts)))
    return 0


def cmd_euler(args) -> int:
    m = _load_matrix(args)
    product = euler_product(m, args.length)
    try:
        counts = trace_counts(m, args.length, max_terms=args.max_terms)
    except ResourceLimitError as exc:
        raise ResourceLimitError(
            f"the verdict runs the count engine to order {args.length} "
            f"(--length): {exc}") from None
    pipeline = zeta_series(counts)
    _emit(format_series(product))
    if product == pipeline:
        _emit(f"EQUAL to order {args.length}")
    else:
        _emit(f"NOT EQUAL to order {args.length}")
    return 0


def _target_series(args):
    counts = _counts(args)
    if args.target == "g":
        return generating_series(counts)
    return zeta_series(counts)


def cmd_guess(args) -> int:
    if args.order is None:
        args.order = required_order(args.deg_t, args.deg_y)
    f = _target_series(args)
    p = guess_annihilator(f, args.deg_t, args.deg_y)
    _emit("none" if p is None else format_bivariate(p))
    return 0


def cmd_verify(args) -> int:
    if args.poly_file:
        with open(args.poly_file, encoding="utf-8") as handle:
            poly_text = handle.read()
    else:
        poly_text = args.poly
    p = parse_bivariate(poly_text)
    if p.is_zero():
        raise ValidationError(
            "the polynomial is zero, which annihilates every series")
    f = _target_series(args)
    residue = evaluate_at_series(p, f)
    if residue.is_zero():
        _emit(f"ANNIHILATES to order {f.order}")
    else:
        k = next(i for i, c in enumerate(residue.coeffs) if c)
        _emit(f"FAILS at order {k}: residue coefficient {residue[k]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgzeta",
        description="Exact zeta series of matrices over free group algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_options(p, default_order=10, shown_order="10"):
        """``shown_order`` None registers no ``--order``."""
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--matrix", metavar="FILE",
                         help="matrix document ('-' reads stdin)")
        src.add_argument("--builtin", metavar="NAME",
                         help="built-in matrix: kontsevich:<n>, paper2x2, "
                              "paperdxd:<d>")
        if shown_order is not None:
            p.add_argument("--order", type=int, default=default_order,
                           help=f"truncation order N (default {shown_order})")
        p.add_argument("--max-terms", type=int, default=DEFAULT_TERM_LIMIT,
                       help="ceiling on the stored series terms of the "
                            "count engine")

    p_an = sub.add_parser("an", help="print the trace counts, one per line")
    add_matrix_options(p_an)

    p_g = sub.add_parser("g", help="print the generating series")
    add_matrix_options(p_g)

    p_zeta = sub.add_parser("zeta", help="print the zeta series")
    add_matrix_options(p_zeta)

    p_euler = sub.add_parser(
        "euler", help="print the Euler product and compare with zeta")
    add_matrix_options(p_euler, shown_order=None)
    p_euler.add_argument("--length", type=int, default=6,
                         help="maximal primitive word length L (default 6)")

    p_guess = sub.add_parser(
        "guess", help="search for an annihilating polynomial")
    add_matrix_options(p_guess, None, "(degt+1)(degy+1)+8")
    p_guess.add_argument("--target", choices=("p", "g"), default="p",
                         help="annihilate the zeta (p) or generating (g) series")
    p_guess.add_argument("--degt", type=int, default=8, dest="deg_t",
                         metavar="DEGT", help="t-degree bound (default 8)")
    p_guess.add_argument("--degy", type=int, default=3, dest="deg_y",
                         metavar="DEGY", help="y-degree bound (default 3)")

    p_verify = sub.add_parser(
        "verify", help="check that a polynomial annihilates the series")
    add_matrix_options(p_verify)
    p_verify.add_argument("--target", choices=("p", "g"), default="p")
    poly_src = p_verify.add_mutually_exclusive_group(required=True)
    poly_src.add_argument("--poly", help="polynomial in 'c * t^i * y^j' terms")
    poly_src.add_argument("--poly-file", help="file containing the polynomial")

    sub.add_parser("selfcheck", help="run the built-in invariant suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "an": cmd_an,
        "g": cmd_g,
        "zeta": cmd_zeta,
        "euler": cmd_euler,
        "guess": cmd_guess,
        "verify": cmd_verify,
        "selfcheck": cmd_selfcheck,
    }
    try:
        for name in ("order", "length", "deg_t", "deg_y", "max_terms"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise ValidationError(f"{name} must be positive")
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


def script_main():
    raise SystemExit(main())


# ----------------------------------------------------------------------
# selfcheck


def cmd_selfcheck(args) -> int:
    rng = random.Random(12345)
    failures = []

    def check(name, condition):
        if condition:
            _emit(f"ok: {name}")
        else:
            failures.append(name)
            print(f"FAIL: {name}", file=sys.stderr)

    ok = True
    for _ in range(200):
        u = random_reduced_word(rng, 2, 6)
        v = random_reduced_word(rng, 2, 6)
        w = random_reduced_word(rng, 2, 6)
        ok &= concat(concat(u, v), w) == concat(u, concat(v, w))
        ok &= concat(u, invert(u)) == ()
        ok &= concat((), u) == u and concat(u, ()) == u
    check("free group laws", ok)

    ok = True
    for _ in range(40):
        a = random_element(rng, 2, 3, 2, 5)
        b = random_element(rng, 2, 3, 2, 5)
        c = random_element(rng, 2, 3, 2, 5)
        ok &= (a * b) * c == a * (b * c)
        ok &= a * (b + c) == a * b + a * c
        ok &= (a * b).coeff(()) == (b * a).coeff(())
    check("group algebra ring laws and trace symmetry", ok)

    ok = True
    for _ in range(6):
        m = random_matrix(rng)
        ok &= trace_counts(m, 5) == power_trace_counts(m, 5)
    check("first-passage counts match the power pipeline", ok)

    ok = True
    for _ in range(6):
        m = random_matrix(rng, rng.randint(1, 2))
        counts = power_trace_counts(m, 4)
        ok &= all(trace_count_by_paths(m, n) == counts[n - 1]
                  for n in range(1, 5))
    check("path oracle matches the power pipeline", ok)

    ok = True
    for _ in range(50):
        m = random_matrix(rng)
        alphabet = alphabet_of(m)
        if not alphabet:
            continue
        u = [rng.choice(alphabet) for _ in range(rng.randint(0, 3))]
        v = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
        ok &= cycle_weight(m, u + v) == cycle_weight(m, v + u)
        r = rng.choice([2, 3])
        ok &= cycle_weight(m, v * r) == cycle_weight(m, v) ** r
    check("cycle weights are cyclic", ok)

    ok = True
    for _ in range(5):
        m = random_matrix(rng, rng.randint(1, 2))
        counts = trace_counts(m, 3)
        ok &= all(cycle_weight_sum(m, n) == counts[n - 1]
                  for n in range(1, 4))
    check("weight sums match trace counts", ok)

    ok = True
    for _ in range(4):
        m = random_matrix(rng, rng.randint(1, 2))
        ok &= euler_product(m, 4) == zeta_series(trace_counts(m, 4))
    check("euler product matches the exp pipeline", ok)

    ok = True
    for _ in range(20):
        order = rng.randint(3, 10)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                  for _ in range(order + 1)]
        coeffs[0] = Fraction(0)
        f = TruncatedSeries(coeffs, order)
        ok &= f.exp().log() == f
        g = TruncatedSeries([Fraction(1)] + list(coeffs[1:]), order)
        ok &= g.sqrt() * g.sqrt() == g
    check("series exp/log/sqrt round trips", ok)

    ok = True
    for _ in range(5):
        m = random_matrix(rng)
        ok &= zeta_series(trace_counts(m, 8)).is_integral()
    check("zeta series of integer matrices are integral", ok)

    if failures:
        print(f"selfcheck failed: {', '.join(failures)}", file=sys.stderr)
        return 2
    _emit("selfcheck passed")
    return 0


__all__ = [
    "MAX_DIMENSION",
    "build_parser",
    "format_matrix_document",
    "main",
    "parse_matrix_document",
    "script_main",
]


if __name__ == "__main__":
    script_main()
