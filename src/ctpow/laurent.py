"""Laurent polynomials with integer coefficients and their cleared dense form.

A Laurent polynomial h in n variables is a finite sum of terms c * X^e with
c a nonzero integer and e an integer exponent vector.  Multiplying h by the
monomial S = X^s, where s_r = max(0, -min_r) and min_r is the smallest
exponent of variable r, clears all denominators and yields an ordinary
polynomial f = S*h whose coefficients live in a dense tensor of shape
(d_1+1) x ... x (d_n+1).  Coefficients of powers of h are coefficients of
powers of f shifted by p*s, which is what the rest of the package computes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction


class LaurentError(ValueError):
    """Raised for syntactically or semantically invalid polynomial input."""


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

    def evaluate(self, point):
        """Exact value at a point with all coordinates nonzero (Fractions ok)."""
        if len(point) != self.n:
            raise LaurentError("point dimension mismatch")
        total = Fraction(0)
        for c, e in self.terms:
            v = Fraction(c)
            for x, k in zip(point, e):
                v *= Fraction(x) ** k
            total += v
        return total


@dataclass(frozen=True)
class CoefficientTensor:
    """Dense row-major coefficient array; the last axis varies fastest."""
    shape: tuple[int, ...]
    data: tuple[int, ...]

    def __post_init__(self):
        size = 1
        for s in self.shape:
            size *= s
        if size != len(self.data):
            raise LaurentError("tensor data length does not match shape")

    def __getitem__(self, index):
        flat = 0
        for k, (i, s) in enumerate(zip(index, self.shape)):
            if not 0 <= i < s:
                raise IndexError(f"index {index} out of bounds for shape {self.shape}")
            flat = flat * s + i
        return self.data[flat]


@dataclass(frozen=True)
class NormalizedPolynomial:
    """The cleared polynomial f = X^shift * h as a dense tensor."""
    variables: tuple[str, ...]
    shift: tuple[int, ...]
    degrees: tuple[int, ...]
    tensor: CoefficientTensor

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


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos] in "./":
                raise LaurentError(
                    f"non-integer literal at position {pos}: write exponents as "
                    f"X^-1 and integer coefficients only")
            raise LaurentError(f"syntax error at position {pos}: {text[pos:pos+10]!r}")
        if m.lastgroup == "int":
            out.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return out


def _parse_expr_text(text: str) -> LaurentPolynomial:
    toks = _tokenize(text)
    if not toks:
        raise LaurentError("empty polynomial text")
    variables: list[str] = []
    var_index: dict[str, int] = {}
    raw_terms = []
    i = 0

    def fail(msg, at):
        raise LaurentError(f"{msg} at position {at}")

    while i < len(toks):
        sign = 1
        # optional leading sign (required between terms after the first)
        if toks[i][0] == "op" and toks[i][1] in "+-":
            if toks[i][1] == "-":
                sign = -1
            i += 1
        elif raw_terms:
            fail("expected '+' or '-' between terms", toks[i][2])
        if i >= len(toks):
            fail("dangling sign", toks[-1][2])

        coeff = 1
        factors: list[tuple[str, int]] = []
        if toks[i][0] == "int":
            coeff = toks[i][1]
            i += 1
            if i < len(toks) and toks[i][0] == "op" and toks[i][1] == "*":
                i += 1
            else:
                # bare integer term
                raw_terms.append((sign * coeff, {}))
                continue
        while True:
            if i >= len(toks) or toks[i][0] != "name":
                fail("expected variable name", toks[i][2] if i < len(toks) else len(toks))
            name = toks[i][1]
            i += 1
            exp = 1
            if i < len(toks) and toks[i][0] == "op" and toks[i][1] == "^":
                i += 1
                esign = 1
                if i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
                    if toks[i][1] == "-":
                        esign = -1
                    i += 1
                if i >= len(toks) or toks[i][0] != "int":
                    fail("expected integer exponent", toks[i - 1][2])
                exp = esign * toks[i][1]
                i += 1
            factors.append((name, exp))
            if name not in var_index:
                var_index[name] = len(variables)
                variables.append(name)
            if i < len(toks) and toks[i][0] == "op" and toks[i][1] == "*":
                i += 1
                continue
            break
        expmap: dict[str, int] = {}
        for name, e in factors:
            expmap[name] = expmap.get(name, 0) + e
        raw_terms.append((sign * coeff, expmap))

    terms = [(c, tuple(em.get(v, 0) for v in variables)) for c, em in raw_terms]
    return make_polynomial(variables, terms)


def _parse_json_text(text: str) -> LaurentPolynomial:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise LaurentError(f"invalid JSON: {e}") from None
    return polynomial_from_json(obj)


def polynomial_from_json(obj) -> LaurentPolynomial:
    if not isinstance(obj, dict) or "variables" not in obj or "terms" not in obj:
        raise LaurentError("JSON polynomial needs 'variables' and 'terms'")
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
    """Clear denominators: f = X^s * h with minimal s, stored densely."""
    if h.is_zero():
        raise LaurentError("cannot normalize the zero polynomial")
    n = h.n
    mins = [min(e[r] for _, e in h.terms) for r in range(n)]
    maxs = [max(e[r] for _, e in h.terms) for r in range(n)]
    shift = tuple(max(0, -m) for m in mins)
    degrees = tuple(mx + s for mx, s in zip(maxs, shift))
    shape = tuple(d + 1 for d in degrees)
    size = 1
    for s in shape:
        size *= s
    data = [0] * size
    for c, e in h.terms:
        flat = 0
        for r in range(n):
            flat = flat * shape[r] + (e[r] + shift[r])
        data[flat] = c
    return NormalizedPolynomial(h.variables, shift, degrees,
                                CoefficientTensor(shape, tuple(data)))


def from_polytope(vertices) -> LaurentPolynomial:
    """Sum of monomials X^v over the given lattice points, all coefficients 1."""
    vertices = [tuple(int(x) for x in v) for v in vertices]
    if not vertices:
        raise LaurentError("empty vertex list")
    n = len(vertices[0])
    if n == 0:
        raise LaurentError("vertices must have at least one coordinate")
    if any(len(v) != n for v in vertices):
        raise LaurentError("vertices of mixed dimension")
    if len(set(vertices)) != len(vertices):
        raise LaurentError("duplicate vertex")
    if n <= 4:
        variables = ("X", "Y", "Z", "T")[:n]
    else:
        variables = tuple(f"X{i+1}" for i in range(n))
    return make_polynomial(variables, [(1, v) for v in vertices])


def total_weight(h: LaurentPolynomial) -> int:
    """Sum of absolute coefficient values; governs coefficient growth of powers."""
    return sum(abs(c) for c, _ in h.terms)


def sort_variables_by_degree(h: LaurentPolynomial) -> LaurentPolynomial:
    """Reorder variables so cleared degrees descend along the axis order.

    The recursion eliminates the last axis first, so this puts the
    highest-degree variables innermost where evaluation is vectorized.
    Stable for ties, so the result is deterministic.
    """
    if h.is_zero():
        return h
    n = h.n
    spans = []
    for r in range(n):
        exps = [e[r] for _, e in h.terms]
        spans.append(max(exps) + max(0, -min(exps)))
    order = sorted(range(n), key=lambda r: (-spans[r], r))
    vs = tuple(h.variables[r] for r in order)
    ts = [(c, tuple(e[r] for r in order)) for c, e in h.terms]
    return make_polynomial(vs, ts)
