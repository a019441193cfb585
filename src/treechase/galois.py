"""Finite field arithmetic for prime fields GF(p) and binary extensions GF(2^m).

Field elements are plain Python ints in the range [0, q).  A Field object
carries the arithmetic; there is no element wrapper class.  For GF(2^m) an
element's integer value is the binary vector of its polynomial coefficients
(bit i holds the coefficient of alpha^i), so addition is XOR and
multiplication goes through exp/log tables built from a fixed primitive
polynomial:

    m   primitive polynomial      mask
    2   x^2 + x + 1               0x7
    3   x^3 + x + 1               0xb
    4   x^4 + x + 1               0x13
    5   x^5 + x^2 + 1             0x25
    6   x^6 + x + 1               0x43
    7   x^7 + x^3 + 1             0x89
    8   x^8 + x^4 + x^3 + x^2 + 1 0x11d
    9   x^9 + x^4 + 1             0x211
    10  x^10 + x^3 + 1            0x409
    11  x^11 + x^2 + 1            0x805
    12  x^12 + x^6 + x^4 + x + 1  0x1053

GF(p) builds the same exp/log tables from its smallest primitive root.  A
field's tables are built when make_field constructs it, and their numpy
copies at its first poly_combine.  log[0] is a sentinel
that indexes a zero tail of the exp table, so exp[log[a] + log[b]] == a * b
for zero operands too.

Univariate polynomials are plain lists of ints, lowest degree first, with no
trailing zeros (the zero polynomial is the empty list).  The kernels on the
decoder's per-frame path (poly_eval, poly_evals, poly_scale, poly_submul,
poly_mul_linear, poly_synth_div, poly_divrem) are Field methods that loop
over local table lookups, so no coefficient costs a method call.  poly_scale
only multiplies and is shared; the others add, so each field kind has its
own: XOR in GF(2^m), integer arithmetic mod p in GF(p).  A difference a - b
is poly_submul(a, b, [1]).  The linear-factor kernels are shared calls of
those two: a*(x - beta) is poly_submul([0, *a], a, [beta]), and the
synthetic division by (x - beta), poly_synth_div, is poly_divrem(a, [-beta,
1]) plus one poly_eval: the quotient, the remainder a(beta) and the
quotient's value at beta, which factorize reads at each root of the error
locator; a point removal checks that its remainder is 0.  GF(2^m) keeps its
own table-driven pair, since every later trial's point swap runs them, and
its division's second Horner accumulator gives the quotient's value in the
division loop itself.

lagrange_table caches, per field and node tuple, the Lagrange basis of the
nodes in the log domain, and poly_combine applies it: the interpolant of
values ys is one numpy gather exp[log y_j + log L_j[i]] and one reduction over
j, XOR in GF(2^m) and a sum mod p in GF(p).  interp.interpolate reads both.
The table is also where duplicate nodes are rejected: lru_cache keeps no
exception, so a bad node tuple raises on every call.

check_count is the one check of a size or count, here and in every module
above: an integer, Python's or numpy's, of at least a least value.  It and
Field.are_elements share one rule for an integer (_is_integer), which takes
no bool: True is no count and no symbol.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache

import numpy as np

PRIMITIVE_POLY = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
}


def _is_integer(value) -> bool:
    """Whether value is an integer, Python's or numpy's: not a float such as
    2.0, and not a bool (Python's or numpy's)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, least: int) -> None:
    """ValueError unless value is an integer (_is_integer) of at least least."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Common interface; use make_field() to construct a concrete field."""

    p: int
    m: int
    q: int

    def _set_tables(self, powers: list[int]) -> None:
        """Exp/log tables from powers = [1, g, g^2, ..., g^(q-2)] of a generator g.

        exp is doubled so a sum of two logs needs no reduction, and log[0] =
        2 * order points into a zero tail long enough for log[0] + log[0].
        """
        order = self.q - 1
        if sorted(powers) != list(range(1, self.q)):
            raise ValueError(f"powers of the generator do not cover GF({self.q})^*")
        zero = 2 * order
        log = [zero] * self.q
        for i, v in enumerate(powers):
            log[v] = i
        self._exp = powers + powers + [0] * (zero + 1)
        self._log = log
        self._order = order

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self._order - self._log[a]]

    def are_elements(self, values) -> bool:
        """Whether every value is an element of this field: an integer
        (_is_integer) in [0, q).  The one rule for messages, words and symbols."""
        q = self.q
        return all(_is_integer(v) and 0 <= v < q for v in values)

    def exp_order(self) -> list[int]:
        """Nonzero elements as powers of the table generator: 1, g, g^2, ..."""
        return self._exp[: self._order]

    def poly_scale(self, a: list[int], s: int) -> list[int]:
        """s * a(x)."""
        exp, log = self._exp, self._log
        ls = log[s]
        return poly_trim([exp[ls + log[v]] for v in a])

    def poly_eval(self, a: list[int], x: int) -> int:
        """a(x) by Horner's rule."""
        return self.poly_evals(a, (x,))[0]

    def poly_submul(self, a: list[int], b: list[int], c: list[int]) -> list[int]:
        """a(x) - b(x) * c(x), the products subtracted in place, one row of b per
        coefficient of c (so c is the shorter factor on the hot paths)."""
        raise NotImplementedError

    def poly_mul_linear(self, a: list[int], beta: int) -> list[int]:
        """a(x) * (x - beta), as x*a(x) - a(x)*beta."""
        return self.poly_submul([0, *a], a, [beta])

    def poly_synth_div(self, a: list[int], beta: int) -> tuple[list[int], int, int]:
        """Synthetic division by (x - beta): the quotient b, the remainder a(beta)
        and b(beta), a = b*(x - beta) + a(beta)."""
        quo, rem = self.poly_divrem(a, [self.sub(0, beta), 1])
        return quo, rem[0] if rem else 0, self.poly_eval(quo, beta)

    def poly_divrem(self, num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
        """Quotient and remainder with deg rem < deg den.

        Inputs are copied and trimmed only when they need it: num is copied
        once as the working remainder, and den is read in place unless it has
        trailing zeros.
        """
        raise NotImplementedError

    def poly_evals(self, a: list[int], xs) -> list[int]:
        """[a(x) for x in xs]: Horner's rule at each node, in one loop."""
        raise NotImplementedError

    @cached_property
    def _np_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """exp and log as int64 arrays, built on first use."""
        return np.array(self._exp, dtype=np.int64), np.array(self._log, dtype=np.int64)

    def poly_combine(self, log_rows: np.ndarray, ys) -> list[int]:
        """sum_j ys[j] * row_j(x), with row j given by the logs of its
        coefficients (log[0] for a zero one), as lagrange_table stores them."""
        exp, log = self._np_tables
        return poly_trim(self._sum_rows(exp[log[np.asarray(ys)][:, None] + log_rows]).tolist())

    def _sum_rows(self, terms: np.ndarray) -> np.ndarray:
        """Column sums of a 2-D array of field elements."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"GF({self.q})"


class PrimeField(Field):
    def __init__(self, p: int):
        self.p = p
        self.m = 1
        self.q = p
        for g in range(1, p):  # smallest primitive root; 1 for p = 2
            powers = [1]
            while len(powers) < p - 1 and powers[-1] * g % p != 1:
                powers.append(powers[-1] * g % p)
            if len(powers) == p - 1:
                break
        self._set_tables(powers)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def poly_submul(self, a, b, c):
        p = self.p
        out = list(a) + [0] * (len(b) + len(c) - 1 - len(a))
        for i, w in enumerate(c):
            for j, v in enumerate(b, i):
                out[j] = (out[j] - v * w) % p
        return poly_trim(out)

    def poly_divrem(self, num, den):
        den, rem = _divrem_operands(num, den)
        dd = len(den) - 1
        if len(rem) <= dd:
            return [], rem
        p = self.p
        inv_lead = self.inv(den[-1])
        low = den[:dd]  # the leading term cancels by construction
        quo = [0] * (len(rem) - dd)
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + dd] * inv_lead % p
            if c:
                quo[i] = c
                for j, v in enumerate(low, i):
                    rem[j] = (rem[j] - c * v) % p
        return quo, poly_trim(rem[:dd])

    def poly_evals(self, a, xs):
        p = self.p
        lead, rest = (a[-1], a[-2::-1]) if a else (0, ())
        out = []
        for x in xs:
            acc = lead
            for v in rest:
                acc = (acc * x + v) % p
            out.append(acc)
        return out

    def _sum_rows(self, terms):
        return terms.sum(axis=0) % self.p


class BinaryField(Field):
    """GF(2^m) with exp/log tables over a fixed primitive polynomial."""

    def __init__(self, m: int):
        self.p = 2
        self.m = m
        self.q = 1 << m
        poly = PRIMITIVE_POLY[m]
        powers = []
        x = 1
        for _ in range(self.q - 1):
            powers.append(x)
            x <<= 1
            if x & self.q:
                x ^= poly
        self._set_tables(powers)

    add = sub = staticmethod(operator.xor)  # a C call, so map(field.sub, z, c) runs in C

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def poly_submul(self, a, b, c):
        exp, log = self._exp, self._log
        out = list(a) + [0] * (len(b) + len(c) - 1 - len(a))
        log_b = [log[v] for v in b]  # a zero coefficient's products land in the zero tail
        for i, w in enumerate(c):
            lw = log[w]
            for j, lv in enumerate(log_b, i):
                out[j] ^= exp[lv + lw]
        return poly_trim(out)

    def poly_mul_linear(self, a, beta):
        exp, log = self._exp, self._log
        lb = log[beta]
        out = [0, *a]
        for i, v in enumerate(a):
            out[i] ^= exp[lb + log[v]]
        return poly_trim(out)

    def poly_synth_div(self, a, beta):
        exp, log = self._exp, self._log
        lb = log[beta]
        out = [0] * (len(a) - 1)
        acc = val = 0  # the quotient's coefficients, high to low, and its Horner value
        for i in range(len(a) - 1, 0, -1):
            acc = out[i - 1] = exp[log[acc] + lb] ^ a[i]
            val = exp[log[val] + lb] ^ acc
        return poly_trim(out), (exp[log[acc] + lb] ^ a[0]) if a else 0, val

    def poly_divrem(self, num, den):
        den, rem = _divrem_operands(num, den)
        dd = len(den) - 1
        if len(rem) <= dd:
            return [], rem
        exp, log = self._exp, self._log
        log_inv_lead = self._order - log[den[-1]]
        log_low = [log[v] for v in den[:dd]]  # the leading term cancels by construction
        quo = [0] * (len(rem) - dd)
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + dd]
            if c:
                c = quo[i] = exp[log[c] + log_inv_lead]
                lc = log[c]
                for j, lv in enumerate(log_low, i):
                    rem[j] ^= exp[lc + lv]
        return quo, poly_trim(rem[:dd])

    def poly_evals(self, a, xs):
        exp, log = self._exp, self._log
        lead, rest = (a[-1], a[-2::-1]) if a else (0, ())
        out = []
        for x in xs:
            lx, acc = log[x], lead
            for v in rest:
                acc = exp[log[acc] + lx] ^ v
            out.append(acc)
        return out

    def _sum_rows(self, terms):
        return np.bitwise_xor.reduce(terms, axis=0)


def make_field(p: int, m: int = 1) -> Field:
    """Construct GF(p^m).  Prime p <= 257 for m = 1; p = 2, 2 <= m <= 12 otherwise."""
    check_count("p", p, 2)
    check_count("m", m, 1)
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m == 1:
        if p > 257:
            raise ValueError("prime fields supported up to p = 257")
        return PrimeField(p)
    if p != 2:
        raise ValueError("extension fields require p = 2")
    if m not in PRIMITIVE_POLY:
        raise ValueError(f"no primitive polynomial on file for m = {m}")
    return BinaryField(m)


# ---------------------------------------------------------------------------
# Univariate polynomials: list[int] low-degree first, no trailing zeros.

def poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _divrem_operands(num, den) -> tuple[list[int], list[int]]:
    """den trimmed (copied only if it has trailing zeros), and num copied
    and trimmed as the working remainder; ZeroDivisionError for den = 0."""
    if not den or not den[-1]:
        den = poly_trim(list(den))
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
    return den, poly_trim(list(num))


def poly_str(c: list[int]) -> str:
    """Human form, low degree first: [] -> "0", [1, 3] -> "1+3x", [0, 1, 2] -> "x+2x^2"."""
    terms = []
    for i, v in enumerate(c):
        if v == 0:
            continue
        if i == 0:
            terms.append(str(v))
        else:
            coef = "" if v == 1 else str(v)
            xpow = "x" if i == 1 else f"x^{i}"
            terms.append(coef + xpow)
    return "+".join(terms) if terms else "0"


@lru_cache(maxsize=16)
def lagrange_table(field: Field, xs: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The Lagrange basis of distinct nodes xs, and N = prod_j (x - x_j).

    Row j holds the logs of the coefficients of L_j = N_j / N_j(x_j), N_j =
    N / (x - x_j), the polynomial of degree len(xs) - 1 that is 1 at x_j and 0
    at the other nodes; Field.poly_combine of the rows with values ys is the
    interpolant of degree < len(xs).  A code builds its table once, at its
    first decode.  O(len(xs)^2).  ValueError for repeated nodes.
    """
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x coordinates")
    N = [1]
    for x in xs:
        N = field.poly_mul_linear(N, x)
    log = field._log
    rows = []
    for x in xs:
        Nj, _, Nj_x = field.poly_synth_div(N, x)
        rows.append([log[v] for v in field.poly_scale(Nj, field.inv(Nj_x))])
    return np.array(rows, dtype=np.int64), tuple(N)
