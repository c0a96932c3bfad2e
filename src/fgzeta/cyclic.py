"""Cyclic series attached to a matrix, via its transition alphabet.

Each letter bundles a support word of one matrix entry with that entry's
row and column.  A sequence of letters gets a weight: zero unless the
indices chain into a closed cycle and the group product of the words
reduces to the identity, otherwise the product of the entry coefficients.
These weights form a cyclic series, so its zeta function factors as an
Euler product over one representative per conjugacy class of primitive
letter words.  We pick Lyndon words (lexicographically minimal
rotations): the closed-chain walk generates them by the prenecklace
rule, and :func:`lyndon_words` generates them by Duval's algorithm as
the tests' oracle.
"""

from typing import NamedTuple

from .errors import ResourceLimitError, ValidationError
from .matrix import AlgebraMatrix
from .series import TruncatedSeries
from .words import Word, concat, invert, word_sort_key

DEFAULT_EDGE_BOUND = 20_000_000

# Longest chain the closed-chain walk takes: it recurses once per letter
# but the last, so this stays well under the interpreter's recursion
# limit (1000).
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


def _closed_chains(m: AlgebraMatrix, max_length: int, edge_bound: int,
                   emit) -> None:
    """Call ``emit(length, weight)`` for each closed Lyndon chain of length
    1..max_length, keeping none of them.

    A chain is a sequence of indices into ``alphabet_of(m)``; it is closed
    when each letter's column is the next letter's row, the last letter's
    column is the first letter's row, and the group product of the words
    is the identity.  Only index-chained sequences can weigh anything, so
    one depth-first walk of the transition graph from each row finds them
    all; the running group product prunes branches that can no longer
    cancel to the identity within max_length letters.  Branches that
    cannot be a prefix of a Lyndon chain are pruned too: every prefix of
    a Lyndon word is a prenecklace, and a prenecklace with period ``p``
    extends by a letter ``x`` exactly when ``x >= chain[-p]``
    (Fredricksen-Kessler-Maiorana), and the extension is Lyndon when
    ``x > chain[-p]``.  The last letter opens no frame: a node at depth
    max_length - 1 emits the letters of its row that close the chain.
    Every node adds the letters its row scans to a count of edges, and
    the walk stops past ``edge_bound`` of them.  A max_length over
    MAX_CHAIN_LENGTH is refused before the walk.
    """
    if max_length > MAX_CHAIN_LENGTH:
        raise ResourceLimitError(
            f"length {max_length} (--length) exceeds the closed-chain "
            f"walk's depth limit MAX_CHAIN_LENGTH = {MAX_CHAIN_LENGTH}; "
            "lower the length")
    alphabet = alphabet_of(m)
    l_max = max((len(a.word) for a in alphabet), default=0)
    # Per row: (index, column, word, word length, coefficient, inverse of
    # the word's first letter).  No letter is 0, so 0 marks the identity.
    by_row: dict[int, list[tuple[int, int, Word, int, int, int]]] = {}
    for idx, letter in enumerate(alphabet):
        word = letter.word
        c = m.entries[letter.row - 1][letter.col - 1].terms[word]
        by_row.setdefault(letter.row, []).append(
            (idx, letter.col, word, len(word), c, -word[0] if word else 0))
    last = max_length - 1
    edges = 0
    chain: list[int] = []

    def extend(start_row: int, row: int, product: Word, coeff: int,
               depth: int, period: int):
        nonlocal edges
        letters = by_row.get(row, ())
        edges += len(letters)
        if edges > edge_bound:
            raise ResourceLimitError(
                f"length {max_length} (--length) exceeds the enumeration "
                f"bound of {edge_bound} closed-chain edges; lower the length")
        if depth and row == start_row and not product and period == depth:
            emit(depth, coeff)
        back = chain[depth - period] if depth else -1
        if depth == last:
            closing = invert(product)
            for idx, col, word, _, c, _ in letters:
                if col == start_row and word == closing and idx > back:
                    emit(max_length, coeff * c)
            return
        budget = (last - depth) * l_max
        room = budget - len(product)
        tail = product[-1] if product else 0
        for idx, col, word, length, c, first_inverse in letters:
            if idx > back:
                next_period = depth + 1
            elif idx == back:
                next_period = period
            else:
                continue
            # The join cancels only where the product's last letter meets
            # the inverse of the word's first; elsewhere it concatenates.
            if tail == first_inverse:
                next_product = (product[:-1] if length == 1
                                else concat(product, word))
                if len(next_product) > budget:
                    continue
            elif length > room:
                continue
            else:
                next_product = product + word
            chain.append(idx)
            extend(start_row, col, next_product, coeff * c, depth + 1,
                   next_period)
            chain.pop()

    for start_row in range(1, m.dim + 1):
        extend(start_row, start_row, (), 1, 0, 0)


def cycle_weight_sum(m: AlgebraMatrix, length: int,
                     edge_bound: int = DEFAULT_EDGE_BOUND) -> int:
    """Total weight over all letter sequences of the given length.

    Equals ``sum over d | n of d * sum over closed Lyndon chains l of
    length d of weight(l)^(n/d)``, with n = ``length``, so only the
    closed Lyndon chains are walked.  Every sequence of length n is one
    of the d distinct rotations of l^(n/d) for exactly one Lyndon chain
    l, of some length d | n.  The weight is cyclic, so the sequence
    weighs weight(l^(n/d)).  That power closes exactly when l does, since
    a free group has no torsion, and then weighs weight(l)^(n/d).
    """
    if length < 1:
        raise ValidationError("length must be >= 1")
    total = 0

    def emit(d, weight):
        nonlocal total
        if length % d == 0:
            total += d * weight ** (length // d)

    _closed_chains(m, length, edge_bound, emit)
    return total


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
                  edge_bound: int = DEFAULT_EDGE_BOUND) -> TruncatedSeries:
    """Product of 1/(1 - weight(l) t^|l|) over Lyndon words l, |l| <= L.

    Letters that do not chain have weight zero and contribute a factor 1,
    so only closed Lyndon chains are enumerated.  Weights are integers,
    so each factor is one integer update of the coefficient list:
    multiplying by 1/(1 - w t^l) = 1 + w t^l + w^2 t^2l + ... sends
    out[k] to out[k] + w * out[k - l], in increasing k.  These exact
    updates commute, so each factor applies as the walk finds it, and
    memory does not grow with the number of chains.
    """
    if max_length < 1:
        raise ValidationError("max_length must be >= 1")
    out = [1] + [0] * max_length

    def emit(length, weight):
        for k in range(length, max_length + 1):
            out[k] += weight * out[k - length]

    _closed_chains(m, max_length, edge_bound, emit)
    return TruncatedSeries(out, max_length)


__all__ = [
    "DEFAULT_EDGE_BOUND",
    "Letter",
    "MAX_CHAIN_LENGTH",
    "alphabet_of",
    "cycle_weight",
    "cycle_weight_sum",
    "euler_product",
    "lyndon_words",
]
