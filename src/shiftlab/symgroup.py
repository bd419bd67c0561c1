"""The symmetric group on {1, .., n} acting on positions from the right.

Conventions used throughout the package:

* ``i * w`` is written ``w.apply(i)``; the product ``v * w`` means "apply
  ``v`` first, then ``w``", so ``(v * w).apply(i) == w.apply(v.apply(i))``.
* The 0/1 matrix of ``w`` has its one in row ``i`` at column ``w.apply(i)``.
  Multiplying a row vector from the right by this matrix sends the basis
  vector ``e_i`` to ``e_{w.apply(i)}``, which makes the matrix map a group
  homomorphism for the product above.
* An inversion of ``w`` is a pair ``(i, j)`` with ``i < j`` and
  ``w.apply(i) > w.apply(j)``; the length of ``w`` is its inversion count.

Permutations are immutable value objects; all factory classmethods take the
ground-set size ``n`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations as _iter_permutations
from typing import Iterable

from .errors import InputFormatError, MathPreconditionError

__all__ = [
    "Permutation",
    "all_permutations",
    "weak_order_geq",
    "parse_permutation",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, .., n} stored in one-line notation.

    ``images[i - 1]`` is the image of ``i`` under the right action.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise MathPreconditionError(
                f"not a permutation of 1..{len(self.images)}: {self.images}"
            )

    # -------------------------------------------------- basic structure

    @property
    def n(self) -> int:
        return len(self.images)

    def apply(self, i: int) -> int:
        """Image of the point ``i`` (1-based)."""
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise MathPreconditionError("permutations act on different ground sets")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    # -------------------------------------------------- factories

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The order-reversing permutation i -> n - i + 1."""
        return cls(tuple(range(n, 0, -1)))

    @classmethod
    def cycle(cls, n: int) -> "Permutation":
        """The n-cycle 1 -> 2 -> ... -> n -> 1; the empty permutation for n = 0."""
        return cls(tuple(range(2, n + 1)) + (1,) if n else ())

    @classmethod
    def simple(cls, n: int, i: int) -> "Permutation":
        """The adjacent transposition swapping i and i + 1."""
        if not 1 <= i <= n - 1:
            raise MathPreconditionError(f"simple reflection index {i} out of range for n={n}")
        return cls.transposition(n, i, i + 1)

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        if a == b or not (1 <= a <= n and 1 <= b <= n):
            raise MathPreconditionError(f"invalid transposition ({a} {b}) for n={n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @classmethod
    def from_word(cls, n: int, word: Iterable[int]) -> "Permutation":
        """Product of adjacent transpositions, applied left to right."""
        w = cls.identity(n)
        for i in word:
            w = w * cls.simple(n, i)
        return w

    # -------------------------------------------------- length and order

    def inversions(self) -> frozenset[tuple[int, int]]:
        """Pairs (i, j), i < j, whose relative order the permutation reverses."""
        img = self.images
        return frozenset(
            (i, j)
            for i in range(1, self.n)
            for j in range(i + 1, self.n + 1)
            if img[i - 1] > img[j - 1]
        )

    def length(self) -> int:
        """The number of inversions, counted without building them."""
        return sum(a > b for a, b in combinations(self.images, 2))

    def moved_points(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.images, start=1) if v != i)

    def as_transposition(self) -> tuple[int, int] | None:
        """The swapped pair (a, b) with a < b, or None if not a transposition."""
        moved = self.moved_points()
        if len(moved) == 2 and self.apply(moved[0]) == moved[1]:
            return (moved[0], moved[1])
        return None

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """0/1 matrix with a one in row i at column self.apply(i)."""
        return tuple(
            tuple(1 if c == v else 0 for c in range(1, self.n + 1))
            for v in self.images
        )

    def one_line(self) -> str:
        return ",".join(str(v) for v in self.images)

    def __repr__(self) -> str:
        return f"Permutation([{self.one_line()}])"


@lru_cache(maxsize=16)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    """All of S_n in lexicographic order of one-line notation.

    The table of each of the 16 most recent n is kept for the process, so
    every family and complex shifted by all n! cells shares one tuple.
    """
    return tuple(map(Permutation, _iter_permutations(range(1, n + 1))))


def weak_order_geq(w: Permutation, u: Permutation) -> bool:
    """True iff w is at least u in the right weak order.

    Equivalently, w factors as u * v with the lengths adding up.
    """
    if w.n != u.n:
        raise MathPreconditionError("permutations act on different ground sets")
    return u.length() + (u.inverse() * w).length() == w.length()


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse a permutation given as one of the accepted surface forms.

    Accepted forms: one-line notation "2,3,1", a word in adjacent
    transpositions "s1 s2 s1", or the literals "e", "w0", "cn" / "cN"
    (for example "c6").  Words and literals need ``n``; one-line notation
    carries its own size but is checked against ``n`` when given.
    """
    text = text.strip()
    if not text:
        raise InputFormatError("empty permutation")
    low = text.lower()
    if low in ("e", "id", "identity"):
        if n is None:
            raise InputFormatError("identity permutation needs an explicit n")
        return Permutation.identity(n)
    if low in ("w0", "cn"):
        if n is None:
            raise InputFormatError(f"literal {text!r} needs an explicit n")
        return Permutation.longest(n) if low == "w0" else Permutation.cycle(n)
    if low.startswith("c") and low[1:].isdigit():
        size = int(low[1:])
        if n is not None and size != n:
            raise InputFormatError(f"cycle literal {text!r} does not match n={n}")
        return Permutation.cycle(size)
    if "," in text:
        try:
            images = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise InputFormatError(f"bad one-line notation {text!r}") from exc
        if n is not None and len(images) != n:
            raise InputFormatError(
                f"one-line notation has {len(images)} entries, expected {n}"
            )
        try:
            return Permutation(images)
        except MathPreconditionError as exc:
            raise InputFormatError(str(exc)) from exc
    parts = text.split()
    if all(p.lower().startswith("s") for p in parts):
        if n is None:
            raise InputFormatError("a word in s_i needs an explicit n")
        try:
            word = [int(p[1:]) for p in parts]
        except ValueError as exc:
            raise InputFormatError(f"bad word {text!r}") from exc
        try:
            return Permutation.from_word(n, word)
        except MathPreconditionError as exc:
            raise InputFormatError(str(exc)) from exc
    raise InputFormatError(f"cannot parse permutation {text!r}")
