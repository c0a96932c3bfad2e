"""Seeded matrix documents for the ``random`` workload.

The matrices come from the tests' random family: dimension 1-3, 2-3
generators, up to three support words of length at most 3 per entry,
coefficients in -3..3 without 0, identity words allowed.

A fixed draw from that family (``FAMILY_SEED``) gives the matrices, and
``--seed`` gives their presentation: a permutation and inversion of the
generators, a permutation of the indices, and the order of lines and
terms in each document.  Those changes leave every trace count and the
size of every matrix power the same; only hash and iteration order
change, which moves the time of the heaviest document by up to about
20%.  Drawing the matrices themselves per seed would move far more: over
20 seeds the summed in-process count time of 24 matrices had a quartile
distance about equal to its median, so run-to-run differences would
measure the draw and not the program.
"""

import random
from dataclasses import dataclass

FAMILY_SEED = 1
DOCUMENT_COUNT = 24
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)

# A word is a tuple of nonzero ints: k stands for generator k, -k for
# its inverse.  An entry maps reduced words to nonzero coefficients.
Entries = dict[tuple[int, int], dict[tuple[int, ...], int]]


@dataclass(frozen=True)
class Document:
    dim: int
    n_gens: int
    entries: Entries
    text: str


def _reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _draw_matrix(rng: random.Random) -> tuple[int, int, Entries]:
    dim = rng.randint(1, 3)
    n_gens = rng.randint(2, 3)
    while True:
        entries: Entries = {}
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                terms: dict[tuple[int, ...], int] = {}
                for _ in range(rng.randint(0, 3)):
                    word = _reduce(rng.choice((1, -1)) * rng.randint(1, n_gens)
                                   for _ in range(rng.randint(0, 3)))
                    terms[word] = terms.get(word, 0) + rng.choice(COEFFICIENTS)
                terms = {w: c for w, c in terms.items() if c}
                if terms:
                    entries[(i, j)] = terms
        if entries:
            return dim, n_gens, entries


def _present(rng: random.Random, dim: int, n_gens: int,
             entries: Entries) -> Document:
    gens = list(range(1, n_gens + 1))
    rng.shuffle(gens)
    image = {g: rng.choice((1, -1)) * gens[g - 1] for g in range(1, n_gens + 1)}
    index = list(range(1, dim + 1))
    rng.shuffle(index)
    moved: Entries = {}
    for (i, j), terms in entries.items():
        moved[(index[i - 1], index[j - 1])] = {
            tuple(image[x] if x > 0 else -image[-x] for x in w): c
            for w, c in terms.items()}
    lines = []
    for (i, j), terms in moved.items():
        items = list(terms.items())
        rng.shuffle(items)
        body = " + ".join(f"{c}*{_format_word(w)}" for w, c in items)
        lines.append(f"[{i},{j}] = {body}")
    rng.shuffle(lines)
    text = "\n".join([f"dim {dim}", *lines]) + "\n"
    return Document(dim, n_gens, moved, text)


def _format_word(word: tuple[int, ...]) -> str:
    if not word:
        return "1"
    return " ".join(f"g{x}" if x > 0 else f"g{-x}^-1" for x in word)


def random_documents(seed: int, count: int = DOCUMENT_COUNT) -> list[Document]:
    """``count`` documents, byte-identical for equal seeds."""
    family = random.Random(FAMILY_SEED)
    drawn = [_draw_matrix(family) for _ in range(count)]
    rng = random.Random(seed)
    return [_present(rng, *matrix) for matrix in drawn]

