"""Quivers, dimension vectors, and exact-rational weight arithmetic.

Weights of G(d) = prod_i GL(d_i) live on "slots": one coordinate per row of
each vertex block, ordered vertex by vertex.  A coordinate is an int where
it is integral and a Fraction only where it is not, so the integer cores
(`_scaled_coords` and the polytope's cuts) read integral weights as they
are.  No float enters: `Weight.make` and `Weight.scale` refuse one, and no
coordinate is divided by `/`.  The scalars read off a weight (`total`,
`block_sums`, `pair`) are Fractions, so that dividing one by an int stays
exact.  A cocharacter is simply an integral weight used through the
pairing.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from . import _rational
from ._record import Record, _set


class Quiver(Record):
    """A quiver with a distinguished subset of edges (the cut).

    ``edges`` are (source, target) pairs of vertex indices; ``cut`` holds
    indices into ``edges``.
    """

    __slots__ = ("vertices", "edges", "cut")

    def __init__(self, vertices: tuple[int, ...], edges: tuple[tuple[int, int], ...],
                 cut: frozenset[int]) -> None:
        nv = len(vertices)
        for s, t in edges:
            if not (0 <= s < nv and 0 <= t < nv):
                raise ValueError(f"edge ({s},{t}) out of range for {nv} vertices")
        for c in cut:
            if not (0 <= c < len(edges)):
                raise ValueError(f"cut index {c} out of range")
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        _set(self, "cut", cut)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @staticmethod
    def from_json(text: str) -> "Quiver":
        data = json.loads(text)
        try:
            vertices, edges = data["vertices"], data["edges"]
            cut = data.get("cut", [])
            if not (all(isinstance(v, list) for v in (vertices, edges, cut))
                    and all(isinstance(e, list) and len(e) == 2 for e in edges)):
                raise TypeError("vertices, edges and cut must be lists, each edge a pair")
            return Quiver(
                vertices=tuple(range(len(vertices))),
                edges=tuple((_json_index(s), _json_index(t)) for s, t in edges),
                cut=frozenset(_json_index(c) for c in cut),
            )
        except (TypeError, KeyError, AttributeError) as exc:
            raise ValueError('quiver JSON must be {"vertices": [...], '
                             '"edges": [[s, t], ...], "cut": [...]}') from exc


def _json_index(x) -> int:
    """A vertex or edge index read from quiver JSON; JSON numbers such as 0.7
    or 2.0, and true/false, are refused rather than rounded."""
    if type(x) is not int:
        raise ValueError(f"quiver JSON index {x!r} is not an integer")
    return x


def jordan() -> Quiver:
    """One vertex, one loop, no cut."""
    return Quiver(vertices=(0,), edges=(((0, 0)),), cut=frozenset())


def doubled_jordan() -> Quiver:
    """One vertex, two loops, no cut."""
    return Quiver(vertices=(0,), edges=((0, 0), (0, 0)), cut=frozenset())


def tripled_jordan() -> Quiver:
    """One vertex, three loops; the third loop is the cut."""
    return Quiver(vertices=(0,), edges=((0, 0), (0, 0), (0, 0)), cut=frozenset({2}))


_BUILTINS = {
    "jordan": jordan,
    "doubled-jordan": doubled_jordan,
    "tripled-jordan": tripled_jordan,
}


def builtin_quiver(name: str) -> Quiver:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown quiver {name!r}; known: {sorted(_BUILTINS)}") from None


def block_offsets(dims: Sequence[int]) -> list[int]:
    offs = [0]
    for d in dims:
        offs.append(offs[-1] + d)
    return offs


class Weight(Record):
    """A weight (or cocharacter) of G(d): one coordinate per slot, an int
    where integral and a Fraction only where not.

    ``blocks`` records the vertex block sizes, i.e. the dimension vector.
    The constructor takes coordinates in that form; `make` builds them from
    any exact input, and the arithmetic keeps them in it.  An int and the
    Fraction of the same value are equal, hash alike and print alike, so
    the form changes no comparison and no output; `repr` prints every
    coordinate as a Fraction.
    """

    __slots__ = ("coords", "blocks")

    def __init__(self, coords: tuple[int | Fraction, ...], blocks: tuple[int, ...]) -> None:
        if sum(blocks) != len(coords):
            raise ValueError("coordinate count does not match block sizes")
        _set(self, "coords", coords)
        _set(self, "blocks", blocks)

    @staticmethod
    def make(values: Iterable, blocks: Sequence[int]) -> "Weight":
        """A weight from ints, Fractions or strings `Fraction` reads, each
        coordinate an int where integral; a float is a TypeError."""
        return Weight(tuple(map(_coord, values)), tuple(blocks))

    @staticmethod
    def zero(blocks: Sequence[int]) -> "Weight":
        return Weight.make([0] * sum(blocks), blocks)

    def __add__(self, other: "Weight") -> "Weight":
        if self.blocks != other.blocks:
            raise ValueError("block mismatch")
        return Weight(tuple(map(_coord, map(add, self.coords, other.coords))), self.blocks)

    def __sub__(self, other: "Weight") -> "Weight":
        if self.blocks != other.blocks:
            raise ValueError("block mismatch")
        return Weight(tuple(map(_coord, map(sub, self.coords, other.coords))), self.blocks)

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords), self.blocks)

    def scale(self, k) -> "Weight":
        """k times the weight; a float k is a TypeError."""
        k = _coord(k)
        return Weight(tuple(_coord(k * a) for a in self.coords), self.blocks)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.coords)

    def is_dominant(self) -> bool:
        """Non-increasing within each vertex block."""
        off = 0
        for b in self.blocks:
            for i in range(off, off + b - 1):
                if self.coords[i] < self.coords[i + 1]:
                    return False
            off += b
        return True

    def total(self) -> Fraction:
        return sum(self.coords, Fraction(0))

    def block_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum((self.coords[i] for i in r), Fraction(0))
                     for r in _slot_ranges(self.blocks))

    def __repr__(self) -> str:
        return f"Weight(coords={tuple(map(Fraction, self.coords))!r}, blocks={self.blocks!r})"

    def restrict(self, slots: Sequence[int], blocks: Sequence[int]) -> "Weight":
        return Weight(tuple(self.coords[i] for i in slots), tuple(blocks))

    def embed(self, slots: Sequence[int], blocks: Sequence[int]) -> "Weight":
        coords = [0] * sum(blocks)
        for local, g in enumerate(slots):
            coords[g] = self.coords[local]
        return Weight(tuple(coords), tuple(blocks))


def pair(lam: Weight, chi: Weight) -> Fraction:
    if len(lam.coords) != len(chi.coords):
        raise ValueError("slot mismatch")
    return sum((a * b for a, b in zip(lam.coords, chi.coords)), Fraction(0))


def _coord(v) -> int | Fraction:
    """v as a weight coordinate: an int where integral, else a Fraction.
    A float is a TypeError (`hallwin._rational`)."""
    if type(v) is int:
        return v
    v = _rational(v)
    return v.numerator if v.denominator == 1 else v


def _scaled_coords(coords: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """(D*coords, D) with D the lcm of the denominators: the coordinates as
    integers over one common denominator.  D is 1, and no coordinate is
    touched, when all are ints."""
    if all(type(c) is int for c in coords):
        return list(coords), 1
    den = lcm(*[c.denominator for c in coords])
    return [c.numerator * (den // c.denominator) for c in coords], den


def _unscaled(ints: Sequence[int], den: int) -> tuple[int | Fraction, ...]:
    """The coordinates ints/den, the inverse of `_scaled_coords`: an int
    where den divides, else a Fraction."""
    return tuple(Fraction(x, den) if x % den else x // den for x in ints)


def _check_block_count(quiver: Quiver, dims: Sequence[int]) -> None:
    """Refuse a dimension vector that does not have one block per vertex."""
    if len(dims) != quiver.num_vertices:
        raise ValueError(f"weight has {len(dims)} blocks but the quiver has "
                         f"{quiver.num_vertices} vertices (one block per vertex)")


def _check_dimension(d: int) -> None:
    """Refuse a one-vertex dimension below 1."""
    if d < 1:
        raise ValueError("dimension must be positive")


def _slot_ranges(dims: Sequence[int]) -> list[range]:
    offs = block_offsets(dims)
    return [range(offs[i], offs[i + 1]) for i in range(len(dims))]


def _edge_weights(dims: Sequence[int], edges: Iterable[tuple[int, int]]) -> list[Weight]:
    """Weights e^(t)_l - e^(s)_m of Hom(C^{d_s}, C^{d_t}) per edge (s, t)."""
    blocks = tuple(dims)
    n = sum(dims)
    ranges = _slot_ranges(dims)
    out = []
    for s, t in edges:
        for l in ranges[t]:
            for m in ranges[s]:
                coords = [0] * n
                coords[l] += 1
                coords[m] -= 1
                out.append(Weight(tuple(coords), blocks))
    return out


def rep_weights(quiver: Quiver, dims: Sequence[int]) -> list[Weight]:
    """All torus weights of the edge representation R(d)."""
    return _edge_weights(dims, quiver.edges)


def cut_weights(quiver: Quiver, dims: Sequence[int]) -> list[Weight]:
    return _edge_weights(dims, [quiver.edges[e] for e in sorted(quiver.cut)])


def adjoint_weights(quiver: Quiver, dims: Sequence[int]) -> list[Weight]:
    """Weights e_l - e_m (all l, m per vertex) of the adjoint g(d)."""
    return _edge_weights(dims, [(v, v) for v in range(len(dims))])


def _doubled_rho(n: int) -> list[int]:
    """2*rho on one block of size n, as ints: 2*rho_i = n - 1 - 2*i."""
    return list(range(n - 1, -n, -2))


def rho(dims: Sequence[int]) -> Weight:
    """Half-sum weight: ((n-1)/2, ..., -(n-1)/2) on each vertex block, ints
    on a block of odd size."""
    coords = []
    for b in dims:
        coords.extend(_unscaled(_doubled_rho(b), 2))
    return Weight(tuple(coords), tuple(dims))


def nu(dims: Sequence[int]) -> Weight:
    return Weight.make([1] * sum(dims), dims)


def tau(dims: Sequence[int]) -> Weight:
    n = sum(dims)
    return Weight.make([Fraction(1, n)] * n, dims)


def _positive_sum(lam: Weight, dims: Sequence[int],
                  edges: Iterable[tuple[int, int]]) -> Weight:
    """Sum of the weights e_l - e_m of the edges (s, t), l a slot of block t
    and m a slot of block s, that pair positively with lam (lam_l > lam_m)."""
    ranges = _slot_ranges(dims)
    acc = [0] * sum(dims)
    for s, t in edges:
        for l in ranges[t]:
            for m in ranges[s]:
                if lam.coords[l] > lam.coords[m]:
                    acc[l] += 1
                    acc[m] -= 1
    return Weight.make(acc, dims)


def N_positive(quiver: Quiver, dims: Sequence[int], lam: Weight) -> Weight:
    """Sum of edge-representation weights beta with <lam, beta> > 0."""
    return _positive_sum(lam, dims, quiver.edges)


def adjoint_positive(quiver: Quiver, dims: Sequence[int], lam: Weight) -> Weight:
    """Sum of adjoint weights alpha with <lam, alpha> > 0."""
    return _positive_sum(lam, dims, [(v, v) for v in range(len(dims))])


def omega_weight(quiver: Quiver, dims: Sequence[int], lam: Weight) -> Weight:
    """Sum of cut-edge weights alpha with <lam, alpha> < 0."""
    return _positive_sum(-lam, dims, [quiver.edges[e] for e in sorted(quiver.cut)])


def n_lambda(quiver: Quiver, dims: Sequence[int], lam: Weight) -> Fraction:
    """Pairing against the determinant of the lam-nonpositive cotangent part.

    Two-term model: sum of positive pairings over edge weights minus the
    same sum over adjoint weights.
    """
    return (pair(lam, N_positive(quiver, dims, lam))
            - pair(lam, adjoint_positive(quiver, dims, lam)))


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of n into positive parts, in ascending
    lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def composition_cocharacter(comp: Sequence[int]) -> Weight:
    """Canonical antidominant cocharacter attached to an ordered composition.

    Consecutive integer levels 0,1,...,k-1 rescaled by the minimal positive
    integer making a sum-zero integral shift possible.
    """
    total = sum(comp)
    if total == 0:
        raise ValueError("empty composition")
    moment = sum(c * i for i, c in enumerate(comp))
    g = gcd(moment, total) if moment else total
    s = total // g
    t = s * moment // total
    coords = []
    for i, c in enumerate(comp):
        coords.extend([s * i - t] * c)
    return Weight.make(coords, (total,))


def block_decompose(chi: Weight, lam: Weight) -> list[Weight]:
    """Split chi into consecutive segments along the level blocks of lam.

    lam must be antidominant (non-decreasing levels per block); each
    maximal run of equal levels yields one single-block segment of chi.
    """
    if chi.blocks != lam.blocks:
        raise ValueError("weight and cocharacter have different slot shapes")
    levels = lam.coords
    off = 0
    for b in lam.blocks:
        seg = levels[off:off + b]
        if any(a > c for a, c in zip(seg, seg[1:])):
            raise ValueError("cocharacter is not antidominant")
        off += b
    out = []
    off = 0
    for b in lam.blocks:
        start = off
        for i in range(off, off + b):
            if i > start and levels[i] != levels[i - 1]:
                out.append(Weight.make(chi.coords[start:i], (i - start,)))
                start = i
        out.append(Weight.make(chi.coords[start:off + b], (off + b - start,)))
        off += b
    return out


def cochar_classes(dims: Sequence[int]) -> list[tuple[tuple[int, ...], Weight]]:
    """All antidominant cocharacter classes with canonical representatives.

    Only one-vertex quivers carry a canonical enumeration here; classes are
    ordered compositions of the dimension.
    """
    if len(dims) != 1:
        raise NotImplementedError("cocharacter class enumeration needs a one-vertex quiver")
    d = dims[0]
    return [(comp, composition_cocharacter(comp)) for comp in compositions(d)]
