"""Trace counts from the first-passage system of walks on the free group.

A term ``c*w`` of entry (i, j) is a step from index i to index j that
multiplies the walk's group element by ``w``.  ``a_n`` counts, with
weights, the closed walks of n steps whose product reduces to the
identity.  On the Cayley tree of the free group such a walk is a
sequence of excursions from the root, and an excursion into the branch
of a letter ``y`` ends with the first return, a first passage by
``y^-1``.  That gives an algebraic system whose unknowns are the
first-passage series (Lalley, Ann. Probab. 1993; Woess, Random Walks on
Infinite Graphs and Groups, 2000):

* ``F_s = A_s + (A_eps + sum_{y != s} A_y F_{y^-1}) F_s``
* ``K = A_eps + sum_y A_y F_{y^-1}``, one excursion from the root
* ``G = (I - K)^-1`` and ``a_n = [t^n] sum_{i < d} G_ii``

Here ``A_y`` holds the single-letter steps of letter ``y`` and ``A_eps``
the identity-word steps.  Each support word of length l becomes l
single-letter steps through l - 1 intermediate states; only the first
step carries ``c*t``, the others carry ``1``.  The system is solved
coefficient by coefficient, at O(N^2) row operations for N counts.
"""

from typing import NamedTuple

from .errors import ResourceLimitError, ValidationError

# Upper bound on FirstPassageSystem.work_estimate for one solve.  Measured
# at an estimate of 1e11, in pure Python on one core of a 2-core Intel
# Xeon VM (CPython 3.11): paper2x2 to order 1842 takes 11.5 s,
# kontsevich:1 to 3218 11.7 s, paperdxd:4 to 1013 16 s, paperdxd:8 to
# 538 24 s and kontsevich:3 to 2426 35 s, each under 33 MiB peak RSS.
WORK_LIMIT = 100_000_000_000


class Step(NamedTuple):
    """One edge of the expanded graph: ``letter`` 0 is the identity word."""

    letter: int
    coeff: int
    degree: int
    target: int


class FirstPassageSystem:
    """The expanded graph of a matrix and the unknowns of its system.

    States ``0..dim-1`` are the matrix indices; states from ``dim`` up to
    ``size`` are the intermediate states of multi-letter words.
    ``steps[u]`` lists the edges leaving state u.  An intermediate state
    has exactly one, of degree 0.  ``unknowns`` are the letters s whose
    ``F_s`` can be nonzero: s and s^-1 both occur.  ``solve_order`` lists
    every state after the successor of its degree-0 edge, the order in
    which one degree of ``F`` can be solved.
    """

    def __init__(self, m):
        self.dim = m.dim
        steps = [[] for _ in range(m.dim)]
        intermediate = []
        for i, row in enumerate(m.entries):
            for j, entry in enumerate(row):
                for word, coeff in entry.terms.items():
                    if not word:
                        steps[i].append(Step(0, coeff, 1, j))
                        continue
                    source, c, degree = i, coeff, 1
                    fresh = []
                    for x in word[:-1]:
                        target = len(steps)
                        steps.append([])
                        steps[source].append(Step(x, c, degree, target))
                        source, c, degree = target, 1, 0
                        fresh.append(source)
                    steps[source].append(Step(word[-1], c, degree, j))
                    intermediate.extend(reversed(fresh))
        self.size = len(steps)
        self.steps = tuple(tuple(s) for s in steps)
        self.solve_order = tuple(range(m.dim)) + tuple(intermediate)
        letters = {x for s in steps for x, _, _, _ in s if x}
        self.unknowns = tuple(sorted((s for s in letters if -s in letters),
                                     key=lambda s: (abs(s), s < 0)))

    def work_estimate(self, count: int) -> int:
        """Cost of a solve to ``count``, up to a constant.

        About ``count^2 * size * (unknowns + dim)`` row operations, each
        on coefficients whose length grows linearly with the degree.
        """
        return count ** 3 * self.size * (len(self.unknowns) + self.dim)

    def trace_counts(self, count: int, max_terms: int) -> list[int]:
        """``a_1 .. a_count``; see :func:`fgzeta.matrix.trace_counts`."""
        work = self.work_estimate(count)
        if work > WORK_LIMIT:
            raise ResourceLimitError(
                f"order {count} (--order) has an estimated cost of "
                f"{work:.1e} for {self.size} states and "
                f"{len(self.unknowns)} unknowns, over the work limit "
                f"{WORK_LIMIT:.0e}; lower the order")

        empty = {}  # shared zero row; never mutated
        unknowns = self.unknowns
        states = range(self.size)
        # Histories indexed [state][degree], each entry a sparse row {col: c}.
        # B[s][u] is K[u] (the same list) unless state u has an s-step.
        f = {s: [[] for _ in states] for s in unknowns}
        k_hist = [[] for _ in states]
        b = {s: [k_hist[u] if all(step.letter != s for step in self.steps[u])
                 else [] for u in states] for s in unknowns}
        g = [[{c: 1}] for c in range(self.dim)]
        counts = []
        stored = self.dim

        def excursion_row(u, n, skip):
            """[t^n] of row u of A_eps + sum over y != skip of A_y F_{y^-1}."""
            parts = []
            for x, c, degree, v in self.steps[u]:
                if x == skip or n < degree:
                    continue
                if not x:
                    if n == degree:
                        parts.append((c, {v: 1}))
                elif x in f:
                    row = f[-x][v][n - degree]
                    if row:
                        parts.append((c, row))
            if not parts:
                return empty, 0
            if len(parts) == 1 and parts[0][0] == 1:
                return parts[0][1], 0
            acc = {}
            for c, row in parts:
                for col, val in row.items():
                    acc[col] = acc.get(col, 0) + c * val
            acc = {col: val for col, val in acc.items() if val}
            return acc or empty, len(acc)

        for n in range(count + 1):
            # Steps from original states carry t, so their rows read lower
            # degrees only; an intermediate state's step carries 1, so its row
            # reads degree n of its successor, which solve_order puts first.
            # K and every B have no constant term, so the convolutions over
            # k start at 1 and read only degrees below n of F and G.
            for u in self.solve_order:
                row, fresh = excursion_row(u, n, None)
                k_hist[u].append(row)
                stored += fresh
                if n == 0 and row:
                    raise ValidationError(
                        "support words must be freely reduced: the excursion "
                        "series K has a constant term")
                for s in unknowns:
                    bs = b[s][u]
                    if bs is not k_hist[u]:
                        row, fresh = excursion_row(u, n, s)
                        bs.append(row)
                        stored += fresh
                    acc = {}
                    for x, c, degree, v in self.steps[u]:
                        if x == s and degree == n:
                            acc[v] = acc.get(v, 0) + c
                    fs = f[s]
                    for k in range(1, n + 1):
                        brow = bs[k]
                        if brow:
                            m = n - k
                            for w, bw in brow.items():
                                for col, val in fs[w][m].items():
                                    acc[col] = acc.get(col, 0) + bw * val
                    acc = {col: val for col, val in acc.items() if val}
                    fs[u].append(acc or empty)
                    stored += len(acc)
            if n == 0:
                continue
            total = 0
            for c, gc in enumerate(g):
                acc = {}
                for k in range(1, n + 1):
                    grow = gc[n - k]
                    if grow:
                        for w, gw in grow.items():
                            for col, val in k_hist[w][k].items():
                                acc[col] = acc.get(col, 0) + gw * val
                acc = {col: val for col, val in acc.items() if val}
                gc.append(acc or empty)
                stored += len(acc)
                total += acc.get(c, 0)
            counts.append(total)
            if stored > max_terms:
                raise ResourceLimitError(
                    f"term ceiling {max_terms} exceeded at power {n} "
                    f"({stored} stored series terms); raise the ceiling or "
                    "lower the order")
        return counts


__all__ = ["FirstPassageSystem", "WORK_LIMIT"]
