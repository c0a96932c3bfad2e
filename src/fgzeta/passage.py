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
step carries ``c*t``, the others carry ``1``.

The system is solved one degree at a time.  Every series is stored
dense: one list of integer coefficients per (state, column), with one
entry per solved degree.  The convolution over the degrees below n of a
row of ``B_s`` with a row of ``F_s``, or of ``G`` with ``K``, is then
one C-level ``sum(map(mul, ...))`` per pair of columns, about N^2/2
coefficient products over a solve to N.  Each state's steps are indexed
by letter once.  Row u of ``K`` is summed once per degree, and row u of
``B_s = A_eps + sum_{y != s} A_y F_{y^-1}`` is that row less the terms
of the s-steps of u, which the index lists; the ``A_s`` term of
``F_s`` comes from the same list.  So a degree visits each step a
constant number of times, not once per unknown.
"""

from operator import mul

from .errors import ResourceLimitError, ValidationError

# Upper bound on FirstPassageSystem.work_estimate for one solve.  Measured
# at an estimate of 1e11, one call in pure Python on one core of a 2-core
# Intel Xeon VM (CPython 3.11), with the process's peak RSS: paperdxd:8
# to order 538 takes 2.0 s and 20 MiB, paperdxd:4 to 1013 2.3 s and
# 19 MiB, paper2x2 to 1842 3.5 s and 18 MiB, kontsevich:1 to 3218 4.9 s
# and 17 MiB, and kontsevich:3 to 2426 15.2 s and 21 MiB.  Many letters
# cost more per unit of the estimate: kontsevich:800 to 396 (1600
# unknowns) takes 37 s and 148 MiB.
WORK_LIMIT = 100_000_000_000


class FirstPassageSystem:
    """The expanded graph of a matrix and the unknowns of its system.

    States ``0..dim-1`` are the matrix indices; states from ``dim`` up to
    ``size`` are the intermediate states of multi-letter words.
    ``steps[u]`` is the letter index of the edges leaving state u,
    ``{letter: [(coeff, degree, target)]}``, where letter 0 is the
    identity word.  An intermediate state has exactly one edge, of
    degree 0.  ``unknowns`` are the letters s whose ``F_s`` can be
    nonzero: s and s^-1 both occur.  ``solve_order`` lists
    every state after the successor of its degree-0 edge, the order in
    which one degree of ``F`` can be solved.
    """

    def __init__(self, m):
        self.dim = m.dim
        steps = [{} for _ in range(m.dim)]
        intermediate = []
        for i, row in enumerate(m.entries):
            for j, entry in enumerate(row):
                for word, coeff in entry.terms.items():
                    source, c, degree = i, coeff, 1
                    fresh = []
                    for x in word[:-1]:
                        target = len(steps)
                        steps.append({})
                        steps[source].setdefault(x, []).append(
                            (c, degree, target))
                        source, c, degree = target, 1, 0
                        fresh.append(source)
                    last = word[-1] if word else 0
                    steps[source].setdefault(last, []).append((c, degree, j))
                    intermediate.extend(reversed(fresh))
        self.size = len(steps)
        self.steps = steps
        self.solve_order = tuple(range(m.dim)) + tuple(intermediate)
        letters = {x for index in steps for x in index if x}
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
                f"order {count} has an estimated cost of "
                f"{work:.1e} for {self.size} states and "
                f"{len(self.unknowns)} unknowns, over the work limit "
                f"{WORK_LIMIT:.0e}; lower the order")

        unknowns = self.unknowns
        steps = self.steps
        states = range(self.size)
        # Histories indexed [state], each {col: [c_0, c_1, ...]}: one dense
        # list per column, one entry per solved degree.  B[s][u] is K[u]
        # (the same dict) unless state u has an s-step.  ``stored`` is the
        # total length of the distinct lists, zeros included.
        f = {s: [{} for _ in states] for s in unknowns}
        k_hist = [{} for _ in states]
        b = {s: [{} if s in steps[u] else k_hist[u] for u in states]
             for s in unknowns}
        g = [{c: [1]} for c in range(self.dim)]
        counts = []
        stored = self.dim

        def extend(hist, row, n):
            """Append degree n, the values in ``row``, to ``hist``; return
            the number of entries appended, ``n + 1`` for a new column."""
            appended = len(hist)
            for col, values in hist.items():
                values.append(row.pop(col, 0))
            for col, val in row.items():
                if val:
                    hist[col] = [0] * n + [val]
                    appended += n + 1
            return appended

        def add_passages(row, group, hist, n, sign):
            """Add ``sign * c * [t^(n - degree)] hist[v]`` to ``row`` for each
            step (c, degree, v) of ``group``."""
            for c, degree, v in group:
                m = n - degree
                if m < 0:
                    continue
                for col, values in hist[v].items():
                    val = values[m]
                    if val:
                        row[col] = row.get(col, 0) + sign * c * val

        for n in range(count + 1):
            # Steps from original states carry t, so their rows read lower
            # degrees only; an intermediate state's step carries 1, so its row
            # reads degree n of its successor, which solve_order puts first.
            # K and every B have no constant term, so the convolutions over
            # k start at 1 and read only degrees below n of F and G.
            for u in self.solve_order:
                index = steps[u]
                # [t^n] of row u of K.
                krow = {}
                for x, group in index.items():
                    if not x:
                        for c, degree, v in group:
                            if degree == n:
                                krow[v] = krow.get(v, 0) + c
                    elif x in f:
                        add_passages(krow, group, f[-x], n, 1)
                if n == 0 and any(krow.values()):
                    raise ValidationError(
                        "support words must be freely reduced: the excursion "
                        "series K has a constant term")
                # B_s[u] = K[u] less the terms of the s-steps of u.
                for s, group in index.items():
                    if s in f:
                        row = dict(krow)
                        add_passages(row, group, f[-s], n, -1)
                        stored += extend(b[s][u], row, n)
                stored += extend(k_hist[u], krow, n)
                for s in unknowns:
                    acc = {}
                    for c, degree, v in index.get(s, ()):
                        if degree == n:
                            acc[v] = acc.get(v, 0) + c
                    if n:
                        fs = f[s]
                        for w, bw in b[s][u].items():
                            # bw[0] is 0, so pair bw[n..0] with F_s[w][0..].
                            bw = bw[::-1]
                            for col, values in fs[w].items():
                                acc[col] = acc.get(col, 0) + sum(map(mul, bw, values))
                    stored += extend(f[s][u], acc, n)
            if n == 0:
                continue
            total = 0
            for c, gc in enumerate(g):
                acc = {}
                for w, gw in gc.items():
                    # K[w][col][0] is 0, so pair K[w][col][0..n] with
                    # 0, G[c][w][n-1..0].
                    gw = [0] + gw[::-1]
                    for col, values in k_hist[w].items():
                        acc[col] = acc.get(col, 0) + sum(map(mul, values, gw))
                total += acc.get(c, 0)
                stored += extend(gc, acc, n)
            counts.append(total)
            if stored > max_terms:
                raise ResourceLimitError(
                    f"term ceiling {max_terms} exceeded at power {n} "
                    f"({stored} stored series terms); raise the ceiling or "
                    "lower the order")
        return counts


__all__ = ["FirstPassageSystem", "WORK_LIMIT"]
