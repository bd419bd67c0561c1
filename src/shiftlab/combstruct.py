"""k-subsets of {1, .., n}, uniform hypergraphs, and simplicial complexes.

Every subset is a plain int bitmask (bit i-1 set means vertex i is
present): the edges of a hypergraph, the faces of a complex and the
columns of a compound alike.  ``subset_mask`` packs a vertex list and
``subset_elements`` unpacks one.  Bitmasks keep the two orders used
everywhere cheap:

* lexicographic order: S < T iff the smallest element of the symmetric
  difference lies in S, that is iff the least bit of S ^ T lies in S; on
  2-subsets of {1,..,4} this sorts 12 < 13 < 14 < 23 < 24 < 34;
* domination order: with both sets written increasingly, a_t <= b_t for
  every coordinate t.

A family of k-subsets is "shifted" when it is closed downward under
domination, checked here through single-element exchanges.  Vertices are
1-based in every serialized form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputFormatError, MathPreconditionError, NotClosedError

__all__ = [
    "subset_mask",
    "subset_elements",
    "k_subsets",
    "UniformHypergraph",
    "is_shifted",
    "FVector",
    "SimplicialComplex",
    "complex_from_layers",
    "is_near_cone",
    "hypergraph_to_json",
    "hypergraph_from_json",
    "complex_to_json",
    "complex_from_json",
    "faces_to_text",
    "faces_from_text",
    "hypergraph_from_text",
    "complex_from_text",
    "read_family",
]


# ------------------------------------------------------------------ subsets


def subset_mask(n: int, elements: Iterable[int]) -> int:
    """The bitmask of a set of vertices, each in 1..n and none repeated."""
    bits = 0
    for v in elements:
        if not 1 <= v <= n:
            raise MathPreconditionError(f"vertex {v} outside 1..{n}")
        bit = 1 << (v - 1)
        if bits & bit:
            raise MathPreconditionError(f"repeated vertex {v}")
        bits |= bit
    return bits


def subset_elements(bits: int) -> tuple[int, ...]:
    """The vertices of a bitmask, increasing."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


def _show(bits: int) -> str:
    """``{1,2}`` for the set {1, 2}, as error messages and reprs write it."""
    if bits < 0:
        return f"{bits:#x}"
    return "{" + ",".join(map(str, subset_elements(bits))) + "}"


@lru_cache(maxsize=None)
def k_subsets(n: int, k: int) -> tuple[int, ...]:
    """The bitmasks of all k-subsets of {1, .., n}, in lexicographic order."""
    if k < 0 or n < 0:
        raise MathPreconditionError(f"bad subset parameters n={n}, k={k}")
    return tuple(map(sum, combinations([1 << i for i in range(n)], k)))


# ------------------------------------------------------------- hypergraphs


@dataclass(frozen=True)
class UniformHypergraph:
    """A set of distinct k-subsets of {1, .., n}, kept in lexicographic order."""

    n: int
    k: int
    edges: tuple[int, ...]

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if e < 0 or e >> self.n or e.bit_count() != self.k:
                raise MathPreconditionError(
                    f"edge {_show(e)} does not live in C([{self.n}], {self.k})"
                )
            if e in seen:
                raise MathPreconditionError(f"repeated edge {_show(e)}")
            seen.add(e)
        edges = tuple(self.edges)
        # b precedes a when the least bit of a ^ b lies in b; shifted
        # families arrive in lex order already, so sort only when not
        if any((a ^ b) & -(a ^ b) & b for a, b in zip(edges, edges[1:])):
            edges = tuple(sorted(edges, key=subset_elements))
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_edges(
        cls, n: int, k: int, edges: Iterable[Iterable[int]]
    ) -> "UniformHypergraph":
        packed = tuple(subset_mask(n, e) for e in edges)
        for e in packed:
            if e.bit_count() != k:
                raise MathPreconditionError(f"edge {_show(e)} is not a {k}-subset")
        return cls(n, k, packed)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_lists(self) -> list[list[int]]:
        return [list(subset_elements(e)) for e in self.edges]

    def __repr__(self) -> str:
        edges = ", ".join(map(_show, self.edges))
        return f"UniformHypergraph(n={self.n}, k={self.k}, [{edges}])"


def is_shifted(h: UniformHypergraph) -> bool:
    """Closed downward under domination, via single-element exchanges."""
    present = set(h.edges)
    for e in h.edges:
        for j in subset_elements(e):
            for i in range(1, j):
                if not e >> (i - 1) & 1:
                    if (e ^ (1 << (j - 1)) ^ (1 << (i - 1))) not in present:
                        return False
    return True


# --------------------------------------------------------------- complexes


@dataclass(frozen=True)
class FVector:
    """Face counts (f_{-1}, f_0, ..., f_dim); f_{-1} counts the empty face."""

    counts: tuple[int, ...]

    def __getitem__(self, dim: int) -> int:
        # indexed by dimension, so [-1] is the empty face count
        return self.counts[dim + 1]

    def __len__(self) -> int:
        return len(self.counts)

    def euler_characteristic(self) -> int:
        """Non-reduced Euler characteristic, ignoring the empty face."""
        return sum(
            (-1) ** d * c for d, c in enumerate(self.counts[1:])
        )

    def __repr__(self) -> str:
        return f"FVector{self.counts}"


@dataclass(frozen=True)
class SimplicialComplex:
    """A downward-closed family of subsets of {1, .., n}.

    Faces are bitmasks; a nonempty complex always contains the empty face 0.
    """

    n: int
    faces: frozenset[int]

    def __post_init__(self):
        for f in self.faces:
            if f < 0 or f >> self.n:
                raise MathPreconditionError(f"face {f:#x} outside 1..{self.n}")
            # downward closure via single-element removals
            bits = f
            while bits:
                low = bits & -bits
                if (f ^ low) not in self.faces:
                    face = subset_elements(f)
                    raise NotClosedError(
                        f"face {face} present but its subset "
                        f"{subset_elements(f ^ low)} is missing",
                        witness=face,
                    )
                bits ^= low
        if self.faces and 0 not in self.faces:
            raise NotClosedError("nonempty complex must contain the empty face")

    @classmethod
    def from_facets(
        cls, n: int, facets: Iterable[Iterable[int]]
    ) -> "SimplicialComplex":
        """Downward closure of the given generating faces."""
        faces: set[int] = set()
        stack = []
        for facet in facets:
            stack.append(subset_mask(n, facet))
        if stack:
            faces.add(0)
        while stack:
            f = stack.pop()
            if f in faces:
                continue
            faces.add(f)
            bits = f
            while bits:
                low = bits & -bits
                sub = f ^ low
                if sub not in faces:
                    stack.append(sub)
                bits ^= low
        return cls(n, frozenset(faces))

    # a complex is frozen, so its dimension and f-vector are computed once,
    # on first use, and kept in the instance dict
    @cached_property
    def dim(self) -> int:
        if not self.faces:
            return -2  # the void complex, one less than {empty face}
        return max(f.bit_count() for f in self.faces) - 1

    def layer(self, s: int) -> UniformHypergraph:
        """The (s+1)-subsets that are faces, as a uniform hypergraph."""
        if s < 0:
            raise MathPreconditionError("layer index must be at least 0")
        k = s + 1
        edges = tuple(f for f in self.faces if f.bit_count() == k)
        return UniformHypergraph(self.n, k, edges)

    def layers(self) -> list[UniformHypergraph]:
        return [self.layer(s) for s in range(self.dim + 1)]

    def facets(self) -> tuple[int, ...]:
        facets = [
            f
            for f in self.faces
            if f and not any(g != f and g & f == f for g in self.faces)
        ]
        if self.faces == frozenset({0}):
            facets = [0]
        return tuple(sorted(facets, key=subset_elements))

    def facets_as_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(subset_elements, self.facets()))

    def f_vector(self) -> FVector:
        return self._f_vector

    @cached_property
    def _f_vector(self) -> FVector:
        if not self.faces:
            return FVector(())
        counts = [0] * (self.dim + 2)
        for f in self.faces:
            counts[f.bit_count()] += 1
        return FVector(tuple(counts))

    def __repr__(self) -> str:
        shown = ",".join(
            "".join(map(str, subset_elements(f))) if f else "()"
            for f in self.facets()
        )
        return f"SimplicialComplex(n={self.n}, facets=[{shown}])"


def complex_from_layers(layers: Sequence[UniformHypergraph]) -> SimplicialComplex:
    """Assemble a complex from uniform layers on one vertex set, one per k.

    Downward closure is checked once, by ``SimplicialComplex``: a face with
    a one-smaller subset in no layer raises ``NotClosedError`` naming it.
    """
    if not layers:
        return SimplicialComplex(0, frozenset())
    n = layers[0].n
    faces: set[int] = {0}
    sizes: set[int] = set()
    for layer in layers:
        if layer.n != n:
            raise MathPreconditionError("layers live on different vertex sets")
        if layer.k in sizes:
            raise MathPreconditionError(f"two layers with k={layer.k}")
        sizes.add(layer.k)
        faces.update(layer.edges)
    return SimplicialComplex(n, frozenset(faces))


def is_near_cone(K: SimplicialComplex) -> bool:
    """True iff every face avoiding vertex 1 can trade any element for 1.

    Concretely: whenever sigma is a face with 1 not in sigma, then for every
    i in sigma the set sigma - {i} + {1} is also a face.
    """
    for f in K.faces:
        if f & 1:
            continue
        bits = f
        while bits:
            low = bits & -bits
            if (f ^ low | 1) not in K.faces:
                return False
            bits ^= low
    return True


# ------------------------------------------------------------ serialization


def hypergraph_to_json(h: UniformHypergraph) -> str:
    payload = {"n": h.n, "k": h.k, "edges": h.edge_lists()}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _require_json_ints(what: str, faces, **sizes) -> None:
    """Refuse sizes and vertices that are not JSON integers (true, 2.0, "3")."""
    try:
        values = list(sizes.items()) + [("vertex", v) for face in faces for v in face]
    except TypeError as exc:
        raise InputFormatError(f"bad {what} JSON: {exc}") from exc
    for name, value in values:
        if type(value) is not int:
            raise InputFormatError(
                f"bad {what} JSON: {name} must be an integer, not {value!r}"
            )


def complex_to_json(K: SimplicialComplex) -> str:
    payload = {
        "n": K.n,
        "facets": [list(f) for f in K.facets_as_tuples()],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def faces_to_text(faces: Iterable[Iterable[int]]) -> str:
    """One face per line, vertices space-separated."""
    return "\n".join(" ".join(str(v) for v in face) for face in faces) + "\n"


def faces_from_text(text: str) -> list[list[int]]:
    """One face per line, vertices separated by commas or whitespace.

    ``#`` starts a comment; blank lines are skipped.  A line that holds
    anything but comments must hold at least one vertex.
    """
    faces = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            face = [int(tok) for tok in line.replace(",", " ").split()]
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: {line!r} is not a face") from exc
        if not face:
            raise InputFormatError(f"line {lineno}: {line!r} holds no vertices")
        faces.append(face)
    return faces


def read_family(
    text: str, n: int | None = None, kind: str = "auto"
) -> UniformHypergraph | SimplicialComplex:
    """Decode hypergraph or complex input, JSON or text: the one reader.

    Input that starts with ``{`` or ``[`` is JSON: an object with integer
    "n" and either "k" and "edges" (a hypergraph) or "facets" (the
    generating faces of a complex), whose "n" equals ``n`` when one is
    given.  Anything else is text for ``faces_from_text``, on ``n`` vertices
    or as many as its largest label; uniform text is a hypergraph, mixed
    text a complex.  ``kind`` "hypergraph" refuses a complex, and "complex"
    turns a hypergraph into the complex its edges generate.  Every fault in
    the input raises ``InputFormatError``.
    """
    if text.lstrip()[:1] in ("{", "["):
        try:
            payload = json.loads(text)
        except ValueError as exc:  # also integers past Python's digit limit
            raise InputFormatError(f"invalid JSON input: {exc}") from exc
        if not isinstance(payload, dict):
            raise InputFormatError("JSON input must be an object")
        if "edges" in payload and "facets" in payload:
            raise InputFormatError('JSON input has both "edges" and "facets"')
        if n is not None and payload.get("n") != n:
            raise InputFormatError(
                f'JSON input has "n": {payload.get("n")!r}, but n is {n}'
            )
        if "edges" not in payload and "facets" not in payload:
            raise InputFormatError('JSON input needs an "edges" or "facets" key')
        if "facets" in payload and kind == "hypergraph":
            raise InputFormatError("facet JSON describes a complex, not a hypergraph")
        what = "hypergraph" if "edges" in payload else "complex"
        try:
            if what == "hypergraph":
                n, k, faces = payload["n"], payload["k"], payload["edges"]
                _require_json_ints(what, faces, n=n, k=k)
                family = UniformHypergraph.from_edges(n, k, faces)
            else:
                n, faces = payload["n"], payload["facets"]
                _require_json_ints(what, faces, n=n)
                family = SimplicialComplex.from_facets(n, faces)
        except (KeyError, MathPreconditionError, TypeError) as exc:
            raise InputFormatError(f"bad {what} JSON: {exc}") from exc
    else:
        faces = faces_from_text(text)
        if not faces:
            raise InputFormatError("no faces found in text input")
        sizes = {len(f) for f in faces}
        if kind == "hypergraph" and len(sizes) > 1:
            raise InputFormatError(f"edges of mixed sizes {sorted(sizes)}")
        if n is None:
            n = max(max(f) for f in faces)
        try:
            if len(sizes) == 1:
                family = UniformHypergraph.from_edges(n, sizes.pop(), faces)
            else:
                family = SimplicialComplex.from_facets(n, faces)
        except MathPreconditionError as exc:
            raise InputFormatError(str(exc)) from exc
    if kind == "complex" and isinstance(family, UniformHypergraph):
        return SimplicialComplex.from_facets(family.n, family.edge_lists())
    return family


def hypergraph_from_json(text: str) -> UniformHypergraph:
    return read_family(text, kind="hypergraph")


def complex_from_json(text: str) -> SimplicialComplex:
    return read_family(text, kind="complex")


def hypergraph_from_text(text: str, n: int | None = None) -> UniformHypergraph:
    return read_family(text, n, "hypergraph")


def complex_from_text(text: str, n: int | None = None) -> SimplicialComplex:
    """Text with no faces is the void complex on ``n`` vertices (default 0);
    other text is ``read_family``'s."""
    if not faces_from_text(text):
        return SimplicialComplex(n or 0, frozenset())
    return read_family(text, n, "complex")
