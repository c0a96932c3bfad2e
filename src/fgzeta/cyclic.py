"""Cyclic series attached to a matrix, via its transition alphabet.

Each letter bundles a support word of one matrix entry with that entry's
row and column.  A sequence of letters gets a weight: zero unless the
indices chain into a closed cycle and the group product of the words
reduces to the identity, otherwise the product of the entry coefficients.
These weights form a cyclic series, so its zeta function factors as an
Euler product over one representative per conjugacy class of primitive
letter words; we pick Lyndon words (lexicographically minimal rotations)
because Duval's algorithm generates them in order at linear cost.
"""

from typing import NamedTuple

from .errors import ResourceLimitError, ValidationError
from .matrix import AlgebraMatrix
from .series import TruncatedSeries
from .words import Word, concat, word_sort_key

DEFAULT_NODE_BOUND = 20_000_000

# Longest chain the closed-chain walk takes: it recurses once per letter,
# so this stays well under the interpreter's recursion limit (1000).
MAX_CHAIN_LENGTH = 500


class Letter(NamedTuple):
    """One transition: ``word`` appears in entry (row, col) of the matrix."""

    word: Word
    row: int
    col: int


def alphabet_of(m: AlgebraMatrix) -> list[Letter]:
    """All letters of ``m`` in a fixed order: (row, col, length, letters)."""
    letters = []
    for i in range(m.dim):
        for j in range(m.dim):
            for w in sorted(m.entries[i][j].terms, key=word_sort_key):
                letters.append(Letter(w, i + 1, j + 1))
    return letters


def _letter_coeff(m: AlgebraMatrix, letter: Letter) -> int:
    if not (1 <= letter.row <= m.dim and 1 <= letter.col <= m.dim):
        raise ValidationError(f"letter {letter} has indices outside the matrix")
    c = m.entries[letter.row - 1][letter.col - 1].coeff(letter.word)
    if c == 0:
        raise ValidationError(
            f"letter {letter} does not occur in entry ({letter.row},{letter.col})")
    return c


def cycle_weight(m: AlgebraMatrix, letters) -> int:
    """Weight of a letter sequence; the empty sequence weighs dim(m).

    Zero unless the column of each letter matches the row of the next
    (cyclically) and the group product of the words is the identity.  The
    group product is tracked incrementally and the walk aborts once the
    running word is too long for the remaining letters to cancel.
    """
    letters = list(letters)
    if not letters:
        return m.dim
    coeffs = [_letter_coeff(m, letter) for letter in letters]
    n = len(letters)
    if letters[-1].col != letters[0].row:
        return 0
    for k in range(n - 1):
        if letters[k].col != letters[k + 1].row:
            return 0
    l_max = max((len(letter.word) for letter in letters), default=0)
    product: Word = ()
    for k, letter in enumerate(letters):
        product = concat(product, letter.word)
        if len(product) > (n - 1 - k) * l_max:
            return 0
    weight = 1
    for c in coeffs:
        weight *= c
    return weight


def _closed_chains(m: AlgebraMatrix, max_length: int, node_bound: int,
                   lyndon: bool) -> list[tuple[int, int]]:
    """(length, weight) of each closed letter chain of length 1..max_length.

    A chain is a sequence of indices into ``alphabet_of(m)``; it is closed
    when each letter's column is the next letter's row, the last letter's
    column is the first letter's row, and the group product of the words
    is the identity.  Only index-chained sequences can weigh anything, so
    one depth-first walk of the transition graph from each row finds them
    all; the running group product prunes branches that can no longer
    cancel to the identity within max_length letters.  With ``lyndon``,
    only Lyndon chains are kept, and branches that cannot be a prefix of
    one are pruned: every prefix of a Lyndon word is a prenecklace, and a
    prenecklace with period ``p`` extends by a letter ``x`` exactly when
    ``x >= chain[-p]`` (Fredricksen-Kessler-Maiorana).  A max_length over
    MAX_CHAIN_LENGTH is refused before the walk.
    """
    if max_length > MAX_CHAIN_LENGTH:
        raise ResourceLimitError(
            f"length {max_length} (--length) exceeds the closed-chain "
            f"walk's depth limit MAX_CHAIN_LENGTH = {MAX_CHAIN_LENGTH}; "
            "lower the length")
    alphabet = alphabet_of(m)
    l_max = max((len(a.word) for a in alphabet), default=0)
    by_row: dict[int, list[tuple[int, int, Word, int]]] = {}
    for idx, letter in enumerate(alphabet):
        c = m.entries[letter.row - 1][letter.col - 1].terms[letter.word]
        by_row.setdefault(letter.row, []).append((idx, letter.col, letter.word, c))
    visited = 0
    chains: list[tuple[int, int]] = []
    chain: list[int] = []

    def extend(start_row: int, row: int, product: Word, coeff: int,
               period: int):
        nonlocal visited
        visited += 1
        if visited > node_bound:
            raise ResourceLimitError(
                f"length {max_length} (--length) exceeds the enumeration "
                f"bound of {node_bound} closed-chain nodes; lower the length")
        depth = len(chain)
        if depth and row == start_row and not product and (
                not lyndon or period == depth):
            chains.append((depth, coeff))
        if depth == max_length:
            return
        budget = (max_length - depth - 1) * l_max
        for idx, col, word, c in by_row.get(row, ()):
            next_period = depth + 1
            if lyndon and depth:
                back = chain[depth - period]
                if idx < back:
                    continue
                if idx == back:
                    next_period = period
            next_product = concat(product, word)
            if len(next_product) > budget:
                continue
            chain.append(idx)
            extend(start_row, col, next_product, coeff * c, next_period)
            chain.pop()

    for start_row in range(1, m.dim + 1):
        extend(start_row, start_row, (), 1, 0)
    return chains


def cycle_weight_sum(m: AlgebraMatrix, length: int,
                     node_bound: int = DEFAULT_NODE_BOUND) -> int:
    """Total weight over all letter sequences of the given length."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    chains = _closed_chains(m, length, node_bound, False)
    return sum(coeff for n, coeff in chains if n == length)


def lyndon_words(alphabet, max_length: int) -> list[tuple]:
    """All Lyndon words of length <= max_length, lexicographically.

    Duval's generation over the alphabet's given order.  A word is Lyndon
    when it is strictly smaller than all of its proper rotations, which
    makes these words a complete set of representatives of conjugacy
    classes of primitive words.
    """
    alphabet = list(alphabet)
    q = len(alphabet)
    if q == 0:
        raise ValidationError("alphabet must be nonempty")
    if max_length < 1:
        raise ValidationError("max_length must be >= 1")
    out = []
    stack = [-1]
    while stack:
        stack[-1] += 1
        out.append(tuple(stack))
        m = len(stack)
        while len(stack) < max_length:
            stack.append(stack[len(stack) - m])
        while stack and stack[-1] == q - 1:
            stack.pop()
    out.sort(key=lambda w: (len(w), w))
    return [tuple(alphabet[i] for i in w) for w in out]


def euler_product(m: AlgebraMatrix, max_length: int,
                  node_bound: int = DEFAULT_NODE_BOUND) -> TruncatedSeries:
    """Product of 1/(1 - weight(l) t^|l|) over Lyndon words l, |l| <= L.

    Letters that do not chain have weight zero and contribute a factor 1,
    so only closed Lyndon chains are enumerated.  Weights are integers,
    so each factor is one integer update of the coefficient list:
    multiplying by 1/(1 - w t^l) = 1 + w t^l + w^2 t^2l + ... sends
    out[k] to out[k] + w * out[k - l], in increasing k.  These exact
    updates commute, so factors apply in the order the walk finds them.
    """
    if max_length < 1:
        raise ValidationError("max_length must be >= 1")
    out = [1] + [0] * max_length
    for length, weight in _closed_chains(m, max_length, node_bound, True):
        for k in range(length, max_length + 1):
            out[k] += weight * out[k - length]
    return TruncatedSeries(out, max_length)


__all__ = [
    "DEFAULT_NODE_BOUND",
    "Letter",
    "MAX_CHAIN_LENGTH",
    "alphabet_of",
    "cycle_weight",
    "cycle_weight_sum",
    "euler_product",
    "lyndon_words",
]
