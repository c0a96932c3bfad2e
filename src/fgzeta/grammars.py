"""Fixed-point solver for proper systems of noncommutative equations.

A proper system assigns to each variable a polynomial in the variables
and the alphabet letters whose monomials are never empty and never a
single bare variable.  Such a system has a unique solution tuple of
series without constant term; truncated to words of length <= L the
solution is reached by iterating substitution from zero, and coefficients
of words of length <= k are final after k rounds.
"""

import re

from .errors import ParseError, ValidationError

# a monomial factor: ("var", index) or ("let", letter string)
Factor = tuple[str, object]
Monomial = tuple[Factor, ...]

_VAR_RE = re.compile(r"xi(\d+)$")
_LETTER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"-?\d+$")


class ProperSystem:
    """Equations xi_i = sum of integer-weighted monomials."""

    def __init__(self, letters: list[str],
                 equations: list[list[tuple[int, Monomial]]]):
        self.letters = letters
        self.equations = equations

    def __eq__(self, other):
        return (isinstance(other, ProperSystem)
                and self.letters == other.letters
                and self.equations == other.equations)

    @property
    def var_count(self) -> int:
        return len(self.equations)

    def validate(self):
        for i, rhs in enumerate(self.equations, start=1):
            for coeff, monomial in rhs:
                if not monomial:
                    raise ValidationError(
                        f"equation xi{i}: empty monomial (constant term)")
                if len(monomial) == 1 and monomial[0][0] == "var":
                    k = monomial[0][1]
                    raise ValidationError(
                        f"equation xi{i}: bare variable monomial xi{k}")
                for kind, value in monomial:
                    if kind == "var" and not 1 <= value <= self.var_count:
                        raise ValidationError(
                            f"equation xi{i}: unknown variable xi{value}")


class TruncatedNCSeries:
    """Integer combination of words of length <= max_len over an alphabet."""

    def __init__(self, max_len: int,
                 terms: dict[tuple[str, ...], int] | None = None):
        self.max_len = max_len
        self.terms = {} if terms is None else terms

    def __eq__(self, other):
        return (isinstance(other, TruncatedNCSeries)
                and self.max_len == other.max_len
                and self.terms == other.terms)


def parse_system(text: str) -> ProperSystem:
    """Parse lines like ``xi1 = a xi1 xi1 + b``.

    Tokens matching ``xi<k>`` are variables, other identifiers are
    letters, a leading integer scales the monomial, '+' separates
    monomials.
    """
    equations: dict[int, list[tuple[int, Monomial]]] = {}
    letters: list[str] = []
    seen_letters = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'xi<k> = ...'", line=ln)
        lhs, rhs = line.split("=", 1)
        m = _VAR_RE.match(lhs.strip())
        if not m:
            raise ParseError(f"left side {lhs.strip()!r} is not a variable", line=ln)
        var = int(m.group(1))
        if var in equations:
            raise ParseError(f"duplicate equation for xi{var}", line=ln)
        monomials = []
        for chunk in rhs.split("+"):
            tokens = chunk.split()
            if not tokens:
                raise ParseError("empty monomial", line=ln)
            coeff = 1
            if _INT_RE.match(tokens[0]):
                coeff = int(tokens[0])
                tokens = tokens[1:]
            factors: list[Factor] = []
            for token in tokens:
                vm = _VAR_RE.match(token)
                if vm:
                    factors.append(("var", int(vm.group(1))))
                elif _LETTER_RE.match(token):
                    if token not in seen_letters:
                        seen_letters.add(token)
                        letters.append(token)
                    factors.append(("let", token))
                else:
                    raise ParseError(f"bad token {token!r}", line=ln)
            monomials.append((coeff, tuple(factors)))
        equations[var] = monomials
    if not equations:
        raise ParseError("no equations found")
    n = len(equations)
    if sorted(equations) != list(range(1, n + 1)):
        raise ParseError(
            f"equations must cover xi1..xi{n} exactly, got {sorted(equations)}")
    system = ProperSystem(letters, [equations[i] for i in range(1, n + 1)])
    system.validate()
    return system


def _mul_truncated(a: dict, b: dict, max_len: int) -> dict:
    out: dict[tuple[str, ...], int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > max_len:
                continue
            w = wa + wb
            s = out.get(w, 0) + ca * cb
            if s:
                out[w] = s
            else:
                del out[w]
    return out


def _evaluate_rhs(system: ProperSystem, current: list[dict], max_len: int) -> list[dict]:
    result = []
    for rhs in system.equations:
        acc: dict[tuple[str, ...], int] = {}
        for coeff, monomial in rhs:
            value = {(): 1}
            for kind, x in monomial:
                factor = current[x - 1] if kind == "var" else {(x,): 1}
                value = _mul_truncated(value, factor, max_len)
                if not value:
                    break
            for w, c in value.items():
                s = acc.get(w, 0) + coeff * c
                if s:
                    acc[w] = s
                else:
                    del acc[w]
        result.append(acc)
    return result


def iterates(system: ProperSystem, max_len: int):
    """Yield successive substitution rounds, starting from the zero tuple."""
    current = [{} for _ in system.equations]
    yield [dict(s) for s in current]
    while True:
        current = _evaluate_rhs(system, current, max_len)
        yield [dict(s) for s in current]


def solve_truncated(system: ProperSystem, max_len: int) -> list[TruncatedNCSeries]:
    """Unique solution, truncated to words of length <= max_len.

    Iterates until a fixed point; properness guarantees this happens
    within max_len rounds, with a small safety margin enforced.
    """
    system.validate()
    if max_len < 1:
        raise ValidationError("max_len must be >= 1")
    steps = iterates(system, max_len)
    previous = next(steps)
    for _ in range(max_len + 2):
        current = next(steps)
        if current == previous:
            return [TruncatedNCSeries(max_len, s) for s in current]
        previous = current
    raise ValidationError(
        "iteration did not stabilize; the system is not proper")


def is_lukasiewicz_word(word) -> bool:
    """Counting criterion for the bracket-sequence language over {a, b}.

    True iff the word has exactly one more b than a and no proper prefix
    has more b's than a's.
    """
    word = tuple(word)
    a_count = 0
    b_count = 0
    for i, ch in enumerate(word):
        if i > 0 and b_count > a_count:
            return False
        if ch == "a":
            a_count += 1
        elif ch == "b":
            b_count += 1
        else:
            return False
    return b_count == a_count + 1


__all__ = [
    "ProperSystem",
    "TruncatedNCSeries",
    "is_lukasiewicz_word",
    "iterates",
    "parse_system",
    "solve_truncated",
]
