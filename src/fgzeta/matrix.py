"""Square matrices over the group algebra and their power-trace counts.

The central quantity is the coefficient of the identity word in Tr(M^n),
for n = 1..N.  :func:`trace_counts` solves the first-passage system of
:mod:`fgzeta.passage` in polynomial time.  Two exponential oracles check
it: :func:`power_trace_counts` multiplies out the powers, and
:func:`trace_count_by_paths` enumerates closed paths.

The power pipeline relies on a length bound: a term of M^k whose reduced
word is longer than (N - k) * l_max can never cancel down to the
identity within the remaining N - k factors, where l_max is the longest
word in M's support, so it is safe to drop.  Pruned and unpruned runs
return identical counts.
"""

from . import _kernel
from .algebra import AlgebraElement
from .errors import ResourceLimitError, ValidationError
from .passage import FirstPassageSystem
from .words import GeneratorTable, Word, concat, word_sort_key

DEFAULT_TERM_LIMIT = 50_000_000
DEFAULT_PATH_BOUND = 8


class AlgebraMatrix:
    """d x d matrix with AlgebraElement entries and a shared name table."""

    def __init__(self, entries, table: GeneratorTable | None = None):
        entries = [list(row) for row in entries]
        dim = len(entries)
        if dim < 1 or any(len(row) != dim for row in entries):
            raise ValidationError("entries must form a square d x d array, d >= 1")
        self.dim = dim
        self.entries = entries
        self.table = table if table is not None else GeneratorTable()

    @classmethod
    def zero(cls, dim: int, table=None) -> "AlgebraMatrix":
        return cls([[AlgebraElement.zero() for _ in range(dim)] for _ in range(dim)],
                   table)

    @classmethod
    def identity(cls, dim: int, table=None) -> "AlgebraMatrix":
        rows = [[AlgebraElement.one() if i == j else AlgebraElement.zero()
                 for j in range(dim)] for i in range(dim)]
        return cls(rows, table)

    def multiply(self, other: "AlgebraMatrix", max_len: int = -1) -> "AlgebraMatrix":
        """Row-by-column product; entry order preserved (noncommutative)."""
        if self.dim != other.dim:
            raise ValidationError(
                f"dimension mismatch: {self.dim} vs {other.dim}")
        d = self.dim
        a, b = self.entries, other.entries
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                acc: dict[Word, int] = {}
                for k in range(d):
                    ta = a[i][k].terms
                    tb = b[k][j].terms
                    if not ta or not tb:
                        continue
                    for w, c in _kernel.mul_terms(ta, tb, max_len).items():
                        s = acc.get(w, 0) + c
                        if s:
                            acc[w] = s
                        else:
                            del acc[w]
                row.append(AlgebraElement(acc))
            out.append(row)
        return AlgebraMatrix(out, self.table)

    def scale(self, k: int) -> "AlgebraMatrix":
        return AlgebraMatrix([[e.scale(k) for e in row] for row in self.entries],
                             self.table)

    def trace_identity(self) -> int:
        """Coefficient of the identity word in the trace."""
        return sum(self.entries[i][i].coeff(()) for i in range(self.dim))

    def max_word_length(self) -> int:
        return max((e.max_word_length() for row in self.entries for e in row),
                   default=0)

    def term_count(self) -> int:
        return sum(len(e.terms) for row in self.entries for e in row)

    def named_entries(self):
        """Entries keyed by generator names instead of ids (for comparison)."""
        def named(w):
            return tuple((self.table.name_of(abs(x)), 1 if x > 0 else -1) for x in w)
        return tuple(
            tuple(frozenset((named(w), c) for w, c in e.terms.items())
                  for e in row)
            for row in self.entries)

    def canonical_form(self):
        """Entries with generators relabeled by first appearance.

        Two matrices have equal canonical forms iff they agree up to a
        renaming of generators; used for round-trip checks where name
        choices may differ.
        """
        relabel: dict[int, int] = {}

        def canon(w):
            out = []
            for x in w:
                g = abs(x)
                if g not in relabel:
                    relabel[g] = len(relabel) + 1
                out.append(relabel[g] if x > 0 else -relabel[g])
            return tuple(out)

        rows = []
        for row in self.entries:
            cells = []
            for e in row:
                cells.append(tuple((canon(w), e.terms[w])
                                   for w in sorted(e.terms, key=word_sort_key)))
            rows.append(tuple(cells))
        return (self.dim, tuple(rows))

    def __eq__(self, other):
        """Name-based equality: same dimension and same named entries."""
        if not isinstance(other, AlgebraMatrix):
            return NotImplemented
        return (self.dim == other.dim
                and self.named_entries() == other.named_entries())

    def __repr__(self):
        return f"<AlgebraMatrix {self.dim}x{self.dim}, {self.term_count()} terms>"


def trace_counts(m: AlgebraMatrix, count: int,
                 max_terms: int = DEFAULT_TERM_LIMIT) -> list[int]:
    """Identity coefficients of Tr(M^n) for n = 1..count.

    Solved from the first-passage system, one degree at a time.  The
    term ceiling bounds the series entries the system stores, zeros
    included, and is checked after each degree; a ResourceLimitError
    names the degree as the power reached.  An order whose estimated
    work exceeds :data:`fgzeta.passage.WORK_LIMIT` is refused before any
    work.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    return FirstPassageSystem(m).trace_counts(count, max_terms)


def power_trace_counts(m: AlgebraMatrix, count: int, prune: bool = True,
                       max_terms: int = DEFAULT_TERM_LIMIT) -> list[int]:
    """Oracle for :func:`trace_counts` by iterated matrix powers.

    With ``prune`` the length bound described in the module docstring is
    applied after each power; results are identical either way.  The term
    ceiling turns runaway growth into a ResourceLimitError naming the
    offending power.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    l_max = m.max_word_length()
    power = m
    if prune:
        power = _pruned(power, (count - 1) * l_max)
    counts = [power.trace_identity()]
    for k in range(2, count + 1):
        bound = (count - k) * l_max if prune else -1
        power = power.multiply(m, bound)
        if power.term_count() > max_terms:
            raise ResourceLimitError(
                f"term ceiling {max_terms} exceeded at power {k} "
                f"({power.term_count()} terms); raise the ceiling or "
                "lower the order")
        counts.append(power.trace_identity())
    return counts


def _pruned(m: AlgebraMatrix, bound: int) -> AlgebraMatrix:
    rows = [[AlgebraElement({w: c for w, c in e.terms.items() if len(w) <= bound})
             for e in row] for row in m.entries]
    return AlgebraMatrix(rows, m.table)


def trace_count_by_paths(m: AlgebraMatrix, n: int,
                         path_bound: int = DEFAULT_PATH_BOUND) -> int:
    """Brute-force oracle for trace_counts(m, n)[n-1].

    Sums coefficient products over every closed index path of length n
    and every choice of support words along it, counting those whose
    group product reduces to the identity.  Exponential; guarded by
    ``path_bound``.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > path_bound:
        raise ResourceLimitError(
            f"path enumeration for n={n} exceeds the bound {path_bound}")
    d = m.dim
    total = 0

    def walk(start: int, row: int, depth: int, product: Word, coeff: int):
        nonlocal total
        if depth == n:
            if row == start and product == ():
                total += coeff
            return
        for col in range(d):
            entry = m.entries[row][col]
            for w, c in entry.terms.items():
                walk(start, col, depth + 1, concat(product, w), coeff * c)

    for start in range(d):
        walk(start, start, 0, (), 1)
    return total


__all__ = [
    "AlgebraMatrix",
    "DEFAULT_PATH_BOUND",
    "DEFAULT_TERM_LIMIT",
    "power_trace_counts",
    "trace_count_by_paths",
    "trace_counts",
]
