"""Reed-Solomon codes defined by the evaluation map.

A message polynomial u of degree < k is encoded as the vector of its values
at n distinct evaluation points, so the code has minimum distance n - k + 1
and classical half-distance decoding radius floor((n - k) / 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .galois import Field, make_field, newton_fit, poly_deg, poly_trim


@dataclass(frozen=True, eq=False)
class CodeParams:
    """An [n, k] evaluation code over the given field.

    eval_points are the n distinct evaluation abscissas, in the order that
    defines codeword coordinates.  Codes compare by identity, as fields do,
    so the codebook caches hit for the same code object.
    """

    field: Field
    n: int
    k: int
    eval_points: tuple[int, ...]

    def __post_init__(self):
        if not (0 < self.k < self.n <= self.field.q):
            raise ValueError(f"need 0 < k < n <= q, got n={self.n} k={self.k} q={self.field.q}")
        if len(self.eval_points) != self.n:
            raise ValueError("eval point count != n")
        if len(set(self.eval_points)) != self.n:
            raise ValueError("eval points must be distinct")

    @property
    def d_min(self) -> int:
        return self.n - self.k + 1

    @property
    def t_min(self) -> int:
        return (self.n - self.k) // 2


def make_code(p: int, m: int, n: int, k: int) -> CodeParams:
    """Standard code construction.

    Prime fields evaluate at 0, 1, ..., n-1.  Binary extension fields
    evaluate at the first n nonzero elements in exp-table order (the usual
    n = q - 1 setting takes all of them).
    """
    fld = make_field(p, m)
    if m == 1:
        if n > p:
            raise ValueError("prime-field code needs n <= p")
        pts = tuple(range(n))
    else:
        if n > fld.q - 1:
            raise ValueError("extension-field code needs n <= q - 1")
        pts = tuple(fld.exp_order()[:n])
    return CodeParams(field=fld, n=n, k=k, eval_points=pts)


def encode(code: CodeParams, message: list[int]) -> tuple[int, ...]:
    """Evaluate the message polynomial at the code's points."""
    if poly_deg(message) >= code.k:
        raise ValueError(f"message degree {poly_deg(message)} >= k = {code.k}")
    fld = code.field
    return tuple(fld.poly_eval(message, x) for x in code.eval_points)


def _fit_first_k(code: CodeParams, v) -> list[int]:
    """The degree-< k polynomial through the first k coordinates of v: O(k^2),
    by the same Newton fit the decoder's interpolate_prefix reads."""
    if len(v) != code.n:
        raise ValueError("length != n")
    k = code.k
    return newton_fit(code.field, code.eval_points[:k], v[:k])[0]


def is_codeword(code: CodeParams, v: tuple[int, ...] | list[int]) -> bool:
    """True iff v is the encoding of some degree-< k message: O(n k)."""
    return encode(code, _fit_first_k(code, v)) == tuple(v)


def message_of(code: CodeParams, v: tuple[int, ...] | list[int]) -> list[int]:
    """Message of a codeword; raises ValueError if v is not one."""
    u = _fit_first_k(code, v)
    if encode(code, u) != tuple(v):
        raise ValueError("not a codeword")
    return u


@lru_cache(maxsize=8)
def codebook(code: CodeParams) -> list[tuple[list[int], tuple[int, ...]]]:
    """All (message, codeword) pairs; intended for small codes (q^k <= 1e6).

    Messages come in lexicographic order of their coefficient vectors
    (u_0, ..., u_{k-1}), u_0 most significant, so the first of several tied
    messages is the lexicographically smallest.
    """
    if code.field.q**code.k > 1_000_000:
        raise ValueError("codebook too large to enumerate")
    msgs = (poly_trim(list(u)) for u in product(range(code.field.q), repeat=code.k))
    return [(u, encode(code, u)) for u in msgs]
