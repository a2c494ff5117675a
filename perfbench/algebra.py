"""Exact arithmetic for the benchmark's instance generation and output checks.

Kept apart from curvemap on purpose: a check that reused the program's own
arithmetic or parser would share its faults.  A binary form of degree d is
a list of d + 1 coefficients, index i holding the coefficient of
x^(d-i) * y^i; the zero form is the empty list.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """GF(p) with elements as ints in [0, p), or QQ (p is None) with Fractions."""

    def __init__(self, p: int | None = None):
        self.p = p
        self.zero = self(0)
        self.one = self(1)

    @property
    def spec(self) -> str:
        return "rational" if self.p is None else f"prime {self.p}"

    def __call__(self, value):
        if self.p is None:
            return Fraction(value)
        if isinstance(value, int):
            return value % self.p
        v = Fraction(value)
        return v.numerator * pow(v.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else a * b % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def balanced(self, a) -> int | Fraction:
        """The representative of least absolute value, for short instance text."""
        if self.p is None:
            return a
        return a - self.p if a > self.p // 2 else a


# ---------------------------------------------------------------------------
# forms as coefficient lists


def strip(f: list) -> list:
    """Drop leading zero coefficients of a univariate list (highest power first)."""
    i = 0
    while i < len(f) and not f[i]:
        i += 1
    return f[i:]


def mul(F: Field, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return out


def compose(F: Field, g: list, f1: list, f2: list) -> list:
    """g(f1, f2) for a form g in two new variables and forms f1, f2 of one degree."""
    e = len(g) - 1
    p1, p2 = [[F.one]], [[F.one]]
    for _ in range(e):
        p1.append(mul(F, p1[-1], f1))
        p2.append(mul(F, p2[-1], f2))
    out = [F.zero] * (e * (len(f1) - 1) + 1)
    for i, c in enumerate(g):
        if c:
            for k, v in enumerate(mul(F, p1[e - i], p2[i])):
                out[k] = F.add(out[k], F.mul(c, v))
    return out


def value_at(F: Field, f: list, t) -> object:
    """f(t, 1): the coefficient list read as a polynomial in t, highest power first."""
    acc = F.zero
    for c in f:
        acc = F.add(F.mul(acc, t), c)
    return acc


def _poly_rem(F: Field, a: list, b: list) -> list:
    a = list(a)
    inv = F.inv(b[0])
    while len(a) >= len(b):
        q = F.mul(a[0], inv)
        for k in range(len(b)):
            a[k] = F.sub(a[k], F.mul(q, b[k]))
        a = strip(a)
    return a


def coprime(F: Field, forms: list) -> bool:
    """No common factor: no common root at (1:0), and a constant gcd of the f(t, 1)."""
    if all(not f[0] for f in forms):
        return False
    g = strip(forms[0])
    for f in forms[1:]:
        h = strip(f)
        while h:
            g, h = h, _poly_rem(F, g, h)
        if len(g) == 1:
            return True
    return len(g) == 1


def rank(F: Field, rows: list) -> int:
    m = [list(r) for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F.inv(m[r][c])
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = F.mul(m[i][c], inv)
                m[i] = [F.sub(v, F.mul(f, w)) for v, w in zip(m[i], m[r])]
        r += 1
    return r


def det(F: Field, mat: list):
    m = [list(r) for r in mat]
    k = len(m)
    out = F.one
    for c in range(k):
        piv = next((i for i in range(c, k) if m[i][c]), None)
        if piv is None:
            return F.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = F.sub(F.zero, out)
        out = F.mul(out, m[c][c])
        inv = F.inv(m[c][c])
        for i in range(c + 1, k):
            if m[i][c]:
                f = F.mul(m[i][c], inv)
                m[i] = [F.sub(v, F.mul(f, w)) for v, w in zip(m[i], m[c])]
    return out


# ---------------------------------------------------------------------------
# text


def fmt(F: Field, f: list, variables=("x", "y")) -> str:
    """Instance-file text of a form: explicit exponents, integer or a/b coefficients."""
    d = len(f) - 1
    x, y = variables
    out = ""
    for i, c in enumerate(f):
        c = F.balanced(c)
        if not c:
            continue
        term = f"{abs(c)}*{x}^{d - i}*{y}^{i}"
        if out:
            out += (" - " if c < 0 else " + ") + term
        else:
            out = ("-" if c < 0 else "") + term
    return out or "0"


class ParseError(ValueError):
    pass


def parse_terms(F: Field, text: str, variables=("x", "y")) -> dict:
    """{(x exponent, y exponent): coefficient} of a sum of terms like -3/2*x^2*y."""
    s = text.replace(" ", "")
    if s == "0":
        return {}
    if not s or s[-1] in "+-*":
        raise ParseError(f"bad form {text!r}")
    terms: dict = {}
    pos = 0
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        end = pos
        while end < len(s) and s[end] not in "+-":
            end += 1
        coeff, a, b = sign, 0, 0
        for factor in s[pos:end].split("*"):
            name, caret, exp = factor.partition("^")
            k = int(exp) if caret else 1
            if name == variables[0]:
                a += k
            elif name == variables[1]:
                b += k
            else:
                try:
                    coeff *= Fraction(factor) if "/" in factor else int(factor)
                except (ValueError, ZeroDivisionError):
                    raise ParseError(f"bad factor {factor!r} in {text!r}")
        terms[(a, b)] = F.add(terms.get((a, b), F.zero), F(coeff))
        pos = end
    return {k: v for k, v in terms.items() if v}


def parse_form(F: Field, text: str, variables=("x", "y")) -> list:
    """Coefficient list of a homogeneous form given as text; raises on mixed degrees."""
    terms = parse_terms(F, text, variables)
    if not terms:
        return []
    degrees = {a + b for a, b in terms}
    if len(degrees) != 1:
        raise ParseError(f"{text!r} is not homogeneous")
    d = degrees.pop()
    out = [F.zero] * (d + 1)
    for (_, b), c in terms.items():
        out[b] = c
    return out
