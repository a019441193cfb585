"""Reed-Solomon codes defined by the evaluation map.

A message polynomial u of degree < k is encoded as the vector of its values
at n distinct evaluation points, so the code has minimum distance n - k + 1
and classical half-distance decoding radius floor((n - k) / 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .galois import Field, check_count, make_field


@dataclass(frozen=True, eq=False)
class CodeParams:
    """An [n, k] evaluation code over the given field.

    Codes compare by identity, as fields do, so a cache keyed on a code (the
    tests' codebook) hits for the same code object.
    """

    field: Field
    n: int
    k: int

    def __post_init__(self):
        check_count("n", self.n, 2)
        check_count("k", self.k, 1)
        q, prime = self.field.q, self.field.m == 1
        if not (0 < self.k < self.n <= (q if prime else q - 1)):
            raise ValueError(f"need 0 < k < n <= {'q' if prime else 'q - 1'}, "
                             f"got n={self.n} k={self.k} q={q}")

    @cached_property
    def eval_points(self) -> tuple[int, ...]:
        """The n distinct evaluation abscissas, in codeword coordinate order.

        Prime fields evaluate at 0, 1, ..., n-1.  Binary extension fields
        evaluate at the first n nonzero elements in exp-table order (the usual
        n = q - 1 setting takes all of them).
        """
        if self.field.m == 1:
            return tuple(range(self.n))
        return tuple(self.field.exp_order()[:self.n])

    @property
    def d_min(self) -> int:
        return self.n - self.k + 1

    @property
    def t_min(self) -> int:
        return (self.n - self.k) // 2


def make_code(p: int, m: int, n: int, k: int) -> CodeParams:
    """The [n, k] code over GF(p^m)."""
    return CodeParams(make_field(p, m), n, k)


def encode(code: CodeParams, message: list[int]) -> tuple[int, ...]:
    """Evaluate the message polynomial at the code's points; ValueError unless
    the message has at most k coefficients, each a field element."""
    message = list(message)
    if len(message) > code.k:
        raise ValueError(f"a message has at most k = {code.k} coefficients, got {len(message)}")
    if not code.field.are_elements(message):
        raise ValueError(f"a message's coefficients are integers in [0, {code.field.q})")
    return tuple(code.field.poly_evals(message, code.eval_points))


def check_word(code: CodeParams, word) -> tuple[int, ...]:
    """word as a tuple; ValueError unless it has n symbols, each a field
    element."""
    w = tuple(word)
    if len(w) != code.n or not code.field.are_elements(w):
        raise ValueError(f"a word of the code has {code.n} symbols in [0, {code.field.q}), "
                         "each an integer")
    return w
