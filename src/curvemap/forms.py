"""Homogeneous forms in two variables: arithmetic, gcd, evaluation, text I/O.

A form of degree d is a dense coefficient vector of length d + 1, index i
holding the coefficient of x**(d-i) * y**i.  The zero form is the empty
vector and carries no degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import DegreeMismatch, InstanceError, ZeroIdeal


@dataclass(frozen=True)
class BinaryForm:
    field: object
    coeffs: tuple

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero form has no degree")
        return len(self.coeffs) - 1

    @property
    def y_order(self) -> int:
        """Largest k with y**k dividing the form."""
        return next(i for i, c in enumerate(self.coeffs) if c)

    @property
    def is_monomial(self) -> bool:
        return sum(1 for c in self.coeffs if c) == 1

    def add(self, other: "BinaryForm") -> "BinaryForm":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise DegreeMismatch("cannot add forms of different degrees")
        f = self.field
        return form(f, [f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def neg(self) -> "BinaryForm":
        f = self.field
        return BinaryForm(f, tuple(f.neg(c) for c in self.coeffs))

    def sub(self, other: "BinaryForm") -> "BinaryForm":
        return self.add(other.neg())

    def scale(self, c) -> "BinaryForm":
        f = self.field
        if self.is_zero or c == f.zero:
            return form(f, [])
        return BinaryForm(f, tuple(f.mul(c, a) for a in self.coeffs))

    def mul(self, other: "BinaryForm") -> "BinaryForm":
        if self.is_zero or other.is_zero:
            return form(self.field, [])
        f = self.field
        a, b = self.coeffs, other.coeffs
        # exact products first, one reduction per output coefficient
        out = [f.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        if f.modular:
            p = f.p
            out = [c % p for c in out]
        return BinaryForm(f, tuple(out))

    def shift(self, xexp: int, yexp: int) -> "BinaryForm":
        """Multiply by the monomial x**xexp * y**yexp."""
        if self.is_zero:
            return self
        f = self.field
        return BinaryForm(
            f, (f.zero,) * yexp + self.coeffs + (f.zero,) * xexp
        )

    def monic(self) -> "BinaryForm":
        """Scale so the leading coefficient (highest x power) is one."""
        if self.is_zero:
            return self
        lead = self.coeffs[self.y_order]
        if lead == self.field.one:
            return self
        return self.scale(self.field.inv(lead))

    def eval_proj(self, point) -> object:
        """Value at the canonical representative of a projective point."""
        if self.is_zero:
            return self.field.zero
        f = self.field
        u, v = point.u, point.v
        d = self.degree
        upow = [f.one]
        vpow = [f.one]
        for _ in range(d):
            upow.append(f.mul(upow[-1], u))
            vpow.append(f.mul(vpow[-1], v))
        acc = f.zero
        for i, c in enumerate(self.coeffs):
            if c:
                acc = f.add(acc, f.mul(c, f.mul(upow[d - i], vpow[i])))
        return acc

    def compose(self, f1: "BinaryForm", f2: "BinaryForm") -> "BinaryForm":
        """Substitute (f1, f2) for the two variables of this form."""
        if self.is_zero:
            return self
        d = self.degree
        f1pow = [constant(self.field)]
        f2pow = [constant(self.field)]
        for _ in range(d):
            f1pow.append(f1pow[-1].mul(f1))
            f2pow.append(f2pow[-1].mul(f2))
        acc = form(self.field, [])
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc.add(f1pow[d - i].mul(f2pow[i]).scale(c))
        return acc

    def __repr__(self):
        return f"BinaryForm({format_form(self)})"


ZERO_CACHE: dict = {}


def form(field, coeffs) -> BinaryForm:
    """Build a form, normalizing an all-zero vector to the zero form."""
    tup = tuple(field.conv(c) for c in coeffs)
    if not any(tup):
        z = ZERO_CACHE.get(field)
        if z is None:
            z = ZERO_CACHE[field] = BinaryForm(field, ())
        return z
    return BinaryForm(field, tup)


def monomial(field, degree: int, yexp: int, c=1) -> BinaryForm:
    c = field.conv(c)
    if not c:
        return form(field, [])
    coeffs = [field.zero] * (degree + 1)
    coeffs[yexp] = c
    return BinaryForm(field, tuple(coeffs))


def constant(field, c=1) -> BinaryForm:
    return form(field, [c])


# ---------------------------------------------------------------------------
# projective points


@dataclass(frozen=True)
class ProjPoint1:
    """A point of P^1, canonicalized so the first nonzero coordinate is 1."""

    field: object
    u: object
    v: object

    @classmethod
    def of(cls, field, u, v) -> "ProjPoint1":
        u, v = field.conv(u), field.conv(v)
        if u == field.zero and v == field.zero:
            raise InstanceError("(0 : 0) is not a projective point")
        s = field.inv(u if u != field.zero else v)
        return cls(field, field.mul(s, u), field.mul(s, v))

    def __str__(self):
        return f"{self.field.fmt(self.u)}:{self.field.fmt(self.v)}"


@dataclass(frozen=True)
class ProjPointN:
    """A point of P^(n-1), canonicalized the same way."""

    field: object
    coords: tuple

    @classmethod
    def of(cls, field, coords) -> "ProjPointN":
        vals = tuple(field.conv(c) for c in coords)
        lead = next((c for c in vals if c != field.zero), None)
        if lead is None:
            raise InstanceError("the zero vector is not a projective point")
        s = field.inv(lead)
        return cls(field, tuple(field.mul(s, c) for c in vals))

    def __str__(self):
        return ":".join(self.field.fmt(c) for c in self.coords)


# ---------------------------------------------------------------------------
# gcd of binary forms

def _strip(c: list) -> list:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


def _poly_mod(a: list, b: list, field) -> list:
    """Remainder of dense univariate division, coefficients low to high."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = field.inv(lb)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q = field.mul(c, inv)
            off = i - db
            for j in range(db):
                a[off + j] = field.sub(a[off + j], field.mul(q, b[j]))
            a[i] = field.zero
    return _strip(a)


def _poly_gcd(a: list, b: list, field) -> list:
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, _poly_mod(a, b, field)
    if a:
        inv = field.inv(a[-1])
        if inv != field.one:
            a = [field.mul(inv, c) for c in a]
    return a


def gcd_forms(forms) -> BinaryForm:
    """Monic greatest common divisor of the nonzero forms in the list.

    Dehomogenize at y = 1, take the univariate gcd (which keeps any shared
    power of x as a root at zero), rehomogenize, and restore the shared
    power of y separately since setting y = 1 discards it.
    """
    nonzero = [h for h in forms if not h.is_zero]
    if not nonzero:
        raise ZeroIdeal("gcd of an empty set of forms")
    field = nonzero[0].field
    y_shared = min(h.y_order for h in nonzero)
    g: list = []
    for h in nonzero:
        # u(t) = h(t, 1): coefficient of t**k is coeffs[d - k]
        u = _strip(list(reversed(h.coeffs)))
        g = _poly_gcd(g, u, field) if g else _poly_gcd(u, [], field)
        if len(g) == 1 and y_shared == 0:
            break
    out = form(field, list(reversed(g)))
    if y_shared:
        out = out.shift(0, y_shared)
    return out.monic()


def li_dim(forms, degree: int | None = None) -> int:
    """Dimension of the span of the forms inside their degree slice.

    One linalg.rank of their coefficient rows: over QQ a rank mod q that
    reaches the number of forms or the slice dimension is proved, and only
    a lower one is read off a kernel lifted from primes.
    """
    nonzero = [h for h in forms if not h.is_zero]
    if not nonzero:
        return 0
    field = nonzero[0].field
    degs = {h.degree for h in nonzero}
    if len(degs) > 1 or (degree is not None and degs != {degree}):
        raise DegreeMismatch(f"forms of degrees {sorted(degs)} in one slice")
    return linalg.rank([list(h.coeffs) for h in nonzero], field)


# ---------------------------------------------------------------------------
# text syntax

_TOKEN = re.compile(r"\d+|[A-Za-z]|[\^*+/-]")
# a character that is neither whitespace (\s is str.isspace) nor part of a token
_BAD_CHAR = re.compile(r"[^\s\dA-Za-z^*+/-]")
# largest total degree of a term in parsed input; a higher exponent is
# rejected before its coefficient list is allocated
MAX_DEGREE = 1000


def _tokenize(text: str) -> list[str]:
    bad = _BAD_CHAR.search(text)
    if bad:
        raise InstanceError(f"unexpected character {bad.group()!r} in polynomial")
    # every character left is whitespace, which findall skips, or part of a token
    return _TOKEN.findall(text)


def parse_form(field, text: str) -> BinaryForm:
    """Parse a polynomial like ``3*x^2*y - y^3`` into a homogeneous form.

    Variables are x, y (or X, Y; the pairs cannot be mixed).  Raises
    InstanceError on syntax errors, inhomogeneous input, a term of degree
    above MAX_DEGREE and a fraction the field cannot hold.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise InstanceError("empty polynomial")
    terms: dict[tuple[int, int], object] = {}
    varcase = None
    pos = 0
    end = len(tokens)

    def take_number() -> int:
        nonlocal pos
        if pos >= end or not tokens[pos].isdigit():
            raise InstanceError(f"expected an integer in {text!r}")
        try:
            v = int(tokens[pos])
        except ValueError:  # longer than Python converts (sys.get_int_max_str_digits)
            raise InstanceError(f"an integer of {len(tokens[pos])} digits is too long")
        pos += 1
        return v

    first = True
    while pos < end:
        sign = 1
        if tokens[pos] in "+-":
            if first and tokens[pos] == "+":
                raise InstanceError("polynomial cannot start with '+'")
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
        elif not first:
            raise InstanceError(f"expected '+' or '-' before {tokens[pos]!r}")
        first = False
        # the integer factors of the term multiply as ints and are converted
        # once; a fraction is converted where it stands, as it may fail
        whole = sign
        coeff = None
        xe = ye = 0
        while True:
            if pos >= end:
                raise InstanceError(f"truncated term in {text!r}")
            tok = tokens[pos]
            if tok.isdigit():
                num = take_number()
                if pos < end and tokens[pos] == "/":
                    pos += 1
                    den = take_number()
                    if den == 0:
                        raise InstanceError("zero denominator")
                    try:
                        value = field.conv(Fraction(num, den))
                    except ValueError:  # no inverse of the denominator mod p
                        raise InstanceError(
                            f"{num}/{den} has no value in the field: "
                            "its denominator is divisible by the prime"
                        )
                    coeff = value if coeff is None else field.mul(coeff, value)
                else:
                    whole *= num
            elif tok.isalpha():
                if tok not in ("x", "y", "X", "Y"):
                    raise InstanceError(f"unknown variable {tok!r}")
                case = "lower" if tok.islower() else "upper"
                if varcase is None:
                    varcase = case
                elif varcase != case:
                    raise InstanceError("cannot mix x,y with X,Y")
                pos += 1
                exp = 1
                if pos < end and tokens[pos] == "^":
                    pos += 1
                    exp = take_number()
                if tok in ("x", "X"):
                    xe += exp
                else:
                    ye += exp
            else:
                raise InstanceError(f"unexpected token {tok!r} in {text!r}")
            if pos < end and tokens[pos] == "*":
                pos += 1
                continue
            break
        if xe + ye > MAX_DEGREE:
            raise InstanceError(
                f"a term of degree {xe + ye} in {text!r}; "
                f"the largest degree accepted is {MAX_DEGREE}"
            )
        key = (xe, ye)
        val = field.conv(whole)
        if coeff is not None:
            val = field.mul(val, coeff)
        terms[key] = field.add(terms[key], val) if key in terms else val
    live = {k: v for k, v in terms.items() if v != field.zero}
    if not live:
        return form(field, [])
    degrees = {xe + ye for xe, ye in live}
    if len(degrees) > 1:
        raise InstanceError(
            f"inhomogeneous polynomial: terms of degrees {sorted(degrees)}"
        )
    d = degrees.pop()
    coeffs = [field.zero] * (d + 1)
    for (xe, ye), v in live.items():
        coeffs[ye] = v
    return form(field, coeffs)


def format_term(coeff: str, xe: int, ye: int, variables=("x", "y")) -> str:
    """One term of format_form: the coefficient text coeff (as field.fmt
    writes it) times x**xe * y**ye, leaving out a unit coefficient and unit
    exponents."""
    negative = coeff.startswith("-")
    mag = coeff[1:] if negative else coeff
    x, y = variables
    factors = []
    if mag != "1" or (xe == 0 and ye == 0):
        factors.append(mag)
    if xe:
        factors.append(x if xe == 1 else f"{x}^{xe}")
    if ye:
        factors.append(y if ye == 1 else f"{y}^{ye}")
    return ("-" if negative else "") + "*".join(factors)


def format_monomial(h: BinaryForm, variables=("x", "y")) -> str:
    """format_form of a monomial c*x^u*y^v: its one term."""
    v = h.y_order
    return format_term(h.field.fmt(h.coeffs[v]), h.degree - v, v, variables)


def format_form(h: BinaryForm, variables=("x", "y")) -> str:
    """Canonical text: terms by descending x exponent, balanced coefficients."""
    if h.is_zero:
        return "0"
    fmt = h.field.fmt
    d = h.degree
    out = []
    for i, c in enumerate(h.coeffs):
        if c:
            term = format_term(fmt(c), d - i, i, variables)
            if out:
                term = f" - {term[1:]}" if term.startswith("-") else f" + {term}"
            out.append(term)
    return "".join(out)
