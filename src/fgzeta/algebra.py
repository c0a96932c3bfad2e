"""Noncommutative Laurent polynomials over a free group.

An :class:`AlgebraElement` is a finite integer combination of reduced
words, stored as a dict mapping word tuples to nonzero Python ints.
Coefficients must be arbitrary precision: entries of high matrix powers
grow exponentially even when the final counts stay small.
"""

from . import _kernel
from .errors import ParseError
from .words import (GeneratorTable, LetterBudget, Word, format_word,
                    parse_word, word_sort_key)


class AlgebraElement:
    """Immutable by convention; do not mutate ``terms`` after construction."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, int] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls({(): 1})

    def coeff(self, w: Word) -> int:
        return self.terms.get(tuple(w), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Word]:
        return sorted(self.terms, key=word_sort_key)

    def max_word_length(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return AlgebraElement(out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return AlgebraElement(_kernel.mul_terms(self.terms, other.terms, -1))
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, k: int) -> "AlgebraElement":
        if k == 0:
            return AlgebraElement()
        return AlgebraElement({w: k * c for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        n = len(self.terms)
        return f"<AlgebraElement with {n} term{'s' if n != 1 else ''}>"


def format_element(a: AlgebraElement, table: GeneratorTable) -> str:
    """Canonical display: terms sorted by (word length, letters).

    Examples: ``3*a b^-1 + -1*1 + d``; the zero element is ``0``.
    """
    if a.is_zero():
        return "0"
    parts = []
    for w in a.support():
        c = a.terms[w]
        body = format_word(w, table)
        parts.append(body if c == 1 else f"{c}*{body}")
    return " + ".join(parts)


def parse_element(text: str, table: GeneratorTable, declare: bool = True,
                  budget: LetterBudget | None = None) -> AlgebraElement:
    """Parse polynomial display syntax; inverse of :func:`format_element`.

    Terms are '+'-separated; a term is ``word``, ``c*word`` or ``-word``.
    Words inside terms use the word display syntax, ``1`` for the
    identity; their letters are spent from ``budget`` when one is given.
    """
    text = text.strip()
    if text == "0":
        return AlgebraElement.zero()
    if not text:
        raise ParseError("empty polynomial")
    out: dict[Word, int] = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty term in polynomial")
        coeff = 1
        if "*" in chunk:
            coeff_text, word_text = chunk.split("*", 1)
            try:
                coeff = int(coeff_text.strip())
            except ValueError:
                raise ParseError(f"bad coefficient {coeff_text.strip()!r}") from None
        else:
            word_text = chunk
            if word_text.startswith("-"):
                coeff = -1
                word_text = word_text[1:]
        w = parse_word(word_text, table, declare=declare, budget=budget)
        s = out.get(w, 0) + coeff
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return AlgebraElement(out)


__all__ = [
    "AlgebraElement",
    "format_element",
    "parse_element",
]
