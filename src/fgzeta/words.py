"""Reduced words in a finitely generated free group.

A word is a tuple of nonzero signed integers: ``k`` stands for the k-th
generator, ``-k`` for its inverse.  The empty tuple is the identity.  All
words handed out by this module are reduced, i.e. contain no adjacent
``x, -x`` pair, which makes tuple equality coincide with group equality.

Generator names live in a :class:`GeneratorTable` that maps display names
to ids in first-declaration order; the arithmetic itself never touches
names, only signed ids.
"""

import re

from .errors import ParseError, ResourceLimitError, ValidationError

Word = tuple[int, ...]

IDENTITY: Word = ()

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class GeneratorTable:
    """Bijective name <-> id registry; ids are 1-based in declaration order."""

    def __init__(self, names=()):
        self._name_to_id: dict[str, int] = {}
        self._names: list[str] = []
        for name in names:
            self.declare(name)

    def declare(self, name: str) -> int:
        """Return the id of ``name``, registering it on first use."""
        gid = self._name_to_id.get(name)
        if gid is not None:
            return gid
        if not _NAME_RE.match(name):
            raise ValidationError(f"invalid generator name {name!r}")
        self._names.append(name)
        gid = len(self._names)
        self._name_to_id[name] = gid
        return gid

    def id_of(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise ValidationError(f"unknown generator {name!r}") from None

    def name_of(self, gid: int) -> str:
        if not 1 <= gid <= len(self._names):
            raise ValidationError(f"unknown generator id {gid}")
        return self._names[gid - 1]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_id

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __repr__(self):
        return f"GeneratorTable({list(self._names)!r})"


def free_reduce(letters) -> Word:
    """Cancel adjacent inverse pairs until none remain (no id validation)."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def reduce_word(letters, table: GeneratorTable | None = None) -> Word:
    """Normal form of a raw signed-id sequence.

    With a ``table``, every id is checked against the declared generators.
    """
    letters = tuple(letters)
    if table is not None:
        n = len(table)
        for x in letters:
            if x == 0 or abs(x) > n:
                raise ValidationError(f"unknown generator id {x}")
    elif any(x == 0 for x in letters):
        raise ValidationError("generator id 0 is not allowed")
    return free_reduce(letters)


def concat(u: Word, v: Word) -> Word:
    """Group product of two reduced words, reduced."""
    i = len(u)
    j = 0
    nv = len(v)
    while i > 0 and j < nv and u[i - 1] == -v[j]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def invert(w: Word) -> Word:
    """Group inverse: reverse and flip signs."""
    return tuple(-x for x in reversed(w))


def word_sort_key(w: Word):
    """Deterministic order: length first, then letters by (generator, sign).

    A generator sorts before its own inverse, and earlier generators sort
    before later ones, so e.g. x < x^-1 < y < y^-1 on single letters.
    """
    return (len(w), tuple((abs(x), 0 if x > 0 else 1) for x in w))


def format_word(w: Word, table: GeneratorTable) -> str:
    """Display a reduced word, collapsing runs into caret powers.

    The identity displays as ``1``; e.g. ``(1, 1, -2)`` over generators
    x, y displays as ``x^2 y^-1``.
    """
    if not w:
        return "1"
    parts = []
    run_letter = w[0]
    run_len = 1
    for x in w[1:]:
        if x == run_letter:
            run_len += 1
        else:
            parts.append(_format_run(run_letter, run_len, table))
            run_letter = x
            run_len = 1
    parts.append(_format_run(run_letter, run_len, table))
    return " ".join(parts)


def _format_run(letter: int, count: int, table: GeneratorTable) -> str:
    name = table.name_of(abs(letter))
    exponent = count if letter > 0 else -count
    if exponent == 1:
        return name
    return f"{name}^{exponent}"


_EXP_RE = re.compile(r"\^(-?\d+)$")

# Most letters one word of display syntax may spell before reduction;
# parse_word checks it before expanding a caret power.
MAX_WORD_LENGTH = 10_000
_MAX_EXPONENT_DIGITS = len(str(MAX_WORD_LENGTH))

# Most letters all the words of one matrix document may spell before
# reduction.  The count engine expands every letter into a state, so
# time and memory grow with this total.  At the limit, one entry of ten
# words of 9,999 letters takes 0.5-0.8 s and 45 MiB for `an --order 2`
# and 1.4-1.5 s and 55 MiB for `an --order 10`, on a 2-core Intel Xeon
# VM (CPython 3.11); 399 such words took 28 s and 1.18 GiB at order 2.
MAX_DOCUMENT_LETTERS = 100_000


class LetterBudget:
    """The letters that the words of one document may still spell."""

    __slots__ = ("left",)

    def __init__(self):
        self.left = MAX_DOCUMENT_LETTERS

    def spend(self, count: int):
        self.left -= count
        if self.left < 0:
            raise ResourceLimitError(
                "the document spells more than MAX_DOCUMENT_LETTERS = "
                f"{MAX_DOCUMENT_LETTERS} letters")


def parse_word(text: str, table: GeneratorTable, declare: bool = True,
               budget: LetterBudget | None = None) -> Word:
    """Parse the display syntax back into a reduced word.

    Round trip guarantee: ``parse_word(format_word(w, t), t) == w``.
    Unknown names are registered when ``declare`` is true, otherwise
    rejected.  A word that spells more than MAX_WORD_LENGTH letters, or
    more than ``budget`` has left, raises ResourceLimitError.
    """
    text = text.strip()
    if text == "1":
        return IDENTITY
    letters: list[int] = []
    for token in text.split():
        exponent = 1
        m = _EXP_RE.search(token)
        name = token
        if m:
            digits = m.group(1).lstrip("-0")
            if len(digits) > _MAX_EXPONENT_DIGITS:
                _too_long(token)
            exponent = int(m.group(1))
            name = token[: m.start()]
        if not _NAME_RE.match(name):
            raise ParseError(f"bad word token {token!r}")
        if exponent == 0:
            raise ParseError(f"zero exponent in {token!r}")
        gid = table.declare(name) if declare else table.id_of(name)
        letter = gid if exponent > 0 else -gid
        if len(letters) + abs(exponent) > MAX_WORD_LENGTH:
            _too_long(token)
        letters.extend([letter] * abs(exponent))
    if budget is not None:
        budget.spend(len(letters))
    return free_reduce(letters)


def _too_long(token: str):
    raise ResourceLimitError(
        f"word spells more than MAX_WORD_LENGTH = {MAX_WORD_LENGTH} letters "
        f"at {token[:40]!r}")
