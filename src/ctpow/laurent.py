"""Laurent polynomials with integer coefficients and their cleared form.

A Laurent polynomial h in n variables is a finite sum of terms c * X^e with
c a nonzero integer and e an integer exponent vector.  Multiplying h by the
monomial S = X^s, where s_r = max(0, -min_r) and min_r is the smallest
exponent of variable r, clears all denominators and yields an ordinary
polynomial f = S*h of degree d_r in variable r, kept as its list of terms.
Coefficients of powers of h are coefficients of powers of f shifted by p*s,
which is what the rest of the package computes.  normalize refuses an f
whose box (d_1+1) x ... x (d_n+1) has more than MAX_TENSOR points, the
size the dense oracle and the reference engine would allocate.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass


MAX_TENSOR = 1 << 24        # points; normalize refuses larger cleared boxes


class LaurentError(ValueError):
    """Raised for syntactically or semantically invalid polynomial input."""


def _integer(x, what: str) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {x!r}") from None


@dataclass(frozen=True)
class LaurentPolynomial:
    # variable names in order of first appearance
    variables: tuple[str, ...]
    # canonical term list: ((coeff, exponent vector), ...), merged, no zeros,
    # sorted by exponent vector so equality is structural
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        for c, e in self.terms:
            if c == 0:
                raise LaurentError("zero coefficient in canonical term list")
            if len(e) != len(self.variables):
                raise LaurentError("exponent vector length mismatch")

    @property
    def n(self) -> int:
        return len(self.variables)

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class NormalizedPolynomial:
    """The cleared polynomial f = X^shift * h as its terms (c, e), e >= 0,
    in h's order: by exponent vector, the row-major order of f's box."""
    variables: tuple[str, ...]
    shift: tuple[int, ...]
    degrees: tuple[int, ...]
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def n(self) -> int:
        return len(self.variables)


def make_polynomial(variables, raw_terms) -> LaurentPolynomial:
    """Merge duplicate exponent vectors, drop zeros, sort; the one constructor."""
    variables = tuple(variables)
    merged: dict[tuple[int, ...], int] = {}
    for c, e in raw_terms:
        e = tuple(int(x) for x in e)
        if len(e) != len(variables):
            raise LaurentError("exponent vector length mismatch")
        merged[e] = merged.get(e, 0) + int(c)
    terms = tuple(sorted(((c, e) for e, c in merged.items() if c != 0),
                         key=lambda t: t[1]))
    return LaurentPolynomial(variables, terms)


# --- text format -----------------------------------------------------------
#
#   expr   ::= [sign] term (sign term)*
#   term   ::= [integer '*'] factor ('*' factor)*  |  integer
#   factor ::= var ['^' signed-integer]
#
# A bare integer term (no factors) is accepted so constants can be written.

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*^]))")


def _parse_expr_text(text: str) -> LaurentPolynomial:
    text = text.rstrip()
    if not text:
        raise LaurentError("empty polynomial text")
    pos = 0

    def take(kind, values=None):
        # the next token's text if it is of this kind (and among values)
        nonlocal pos
        m = _TOKEN.match(text, pos)
        if not m or m.lastgroup != kind or values and m[kind] not in values:
            return None
        pos = m.end()
        return m[kind]

    def need(kind, what, values=None):
        got = take(kind, values)
        if got is None:
            at = len(text) - len(text[pos:].lstrip())
            if text.startswith((".", "/"), at):
                raise LaurentError(
                    f"non-integer literal at position {at}: write exponents as "
                    f"X^-1 and integer coefficients only")
            raise LaurentError(f"expected {what} at position {at}")
        return got

    raw_terms = []
    sign = take("op", "+-") or ""
    while True:
        coeff = take("int")
        expmap: dict[str, int] = {}
        if not coeff or take("op", "*"):
            while True:
                name = need("name", "variable name")
                exp = "1"
                if take("op", "^"):
                    exp = ((take("op", "+-") or "")
                           + need("int", "integer exponent"))
                expmap[name] = expmap.get(name, 0) + int(exp)
                if not take("op", "*"):
                    break
        raw_terms.append((int(sign + (coeff or "1")), expmap))
        if pos == len(text):
            break
        sign = need("op", "'+' or '-' between terms", "+-")

    # in order of first appearance
    variables = list(dict.fromkeys(v for _, em in raw_terms for v in em))
    terms = [(c, tuple(em.get(v, 0) for v in variables)) for c, em in raw_terms]
    return make_polynomial(variables, terms)


def _parse_json_text(text: str) -> LaurentPolynomial:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise LaurentError(f"invalid JSON: {e}") from None
    return polynomial_from_json(obj)


def polynomial_from_json(obj) -> LaurentPolynomial:
    if (not isinstance(obj, dict) or "variables" not in obj
            or not isinstance(obj.get("terms"), list)):
        raise LaurentError("JSON polynomial needs 'variables' and a 'terms' list")
    variables = obj["variables"]
    if (not isinstance(variables, list)
            or any(not isinstance(v, str) for v in variables)
            or len(set(variables)) != len(variables)):
        raise LaurentError("'variables' must be a list of distinct names")
    n = len(variables)
    raw = []
    for t in obj["terms"]:
        if not isinstance(t, dict) or "c" not in t or "e" not in t:
            raise LaurentError("each term needs 'c' and 'e'")
        c = t["c"]
        if isinstance(c, str):
            if not re.fullmatch(r"[+-]?\d+", c.strip()):
                raise LaurentError(f"non-integer coefficient {c!r}")
            c = int(c)
        elif isinstance(c, bool) or not isinstance(c, int):
            raise LaurentError(f"non-integer coefficient {c!r}")
        e = t["e"]
        if (not isinstance(e, list) or len(e) != n
                or any(isinstance(x, bool) or not isinstance(x, int) for x in e)):
            raise LaurentError(f"exponent vector {e!r} must be {n} integers")
        raw.append((c, tuple(e)))
    return make_polynomial(variables, raw)


def polynomial_to_json(h: LaurentPolynomial) -> dict:
    """Coefficients are decimal strings so no consumer truncates them."""
    return {
        "variables": list(h.variables),
        "terms": [{"c": str(c), "e": list(e)} for c, e in h.terms],
    }


def parse_laurent(text: str, fmt: str = "expr") -> LaurentPolynomial:
    """Parse polynomial text in 'expr' or 'json' format."""
    if fmt == "expr":
        return _parse_expr_text(text)
    if fmt == "json":
        return _parse_json_text(text)
    raise LaurentError(f"unknown format {fmt!r}")


def to_expr_string(h: LaurentPolynomial) -> str:
    if h.is_zero():
        return "0"
    parts = []
    for c, e in h.terms:
        factors = [v if k == 1 else f"{v}^{k}"
                   for v, k in zip(h.variables, e) if k != 0]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        parts.append(("-" if c < 0 else "+", body))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def normalize(h: LaurentPolynomial) -> NormalizedPolynomial:
    """Clear denominators: f = X^s * h with minimal s (a box of at most
    MAX_TENSOR points, else LaurentError)."""
    if h.is_zero():
        raise LaurentError("cannot normalize the zero polynomial")
    n = h.n
    mins = [min(e[r] for _, e in h.terms) for r in range(n)]
    maxs = [max(e[r] for _, e in h.terms) for r in range(n)]
    shift = tuple(max(0, -m) for m in mins)
    degrees = tuple(mx + s for mx, s in zip(maxs, shift))
    shape = tuple(d + 1 for d in degrees)
    if math.prod(shape) > MAX_TENSOR:
        raise LaurentError(f"cleared coefficient tensor of shape {shape} "
                           f"exceeds {MAX_TENSOR} entries")
    return NormalizedPolynomial(h.variables, shift, degrees, tuple(
        (c, tuple(x + s for x, s in zip(e, shift))) for c, e in h.terms))


def total_weight(h: LaurentPolynomial) -> int:
    """Sum of absolute coefficient values; governs coefficient growth of powers."""
    return sum(abs(c) for c, _ in h.terms)
