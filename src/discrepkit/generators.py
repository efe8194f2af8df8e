"""Point-set generators used as discrepancy test subjects.

Halton and digit-permuted (generalized) Halton sequences, rank-1 lattices,
the optimal one-dimensional midpoint sets, and adversarial instances built
from graphs via the Dominating-Set construction of Gnewuch, Srivastav and
Wahlstrom (J. Complexity 2009), which ties the largest empty anchored box of
the instance to the domination number of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pointset import PointSet

__all__ = [
    "PermutationConfig",
    "Graph",
    "primes",
    "radical_inverse",
    "scrambled_radical_inverse",
    "reverse_permutation",
    "random_permutation",
    "halton",
    "rank1_lattice",
    "midpoint_set",
    "dominating_set_instance",
]


def primes(count: int) -> list[int]:
    """First ``count`` primes, by an incrementally grown sieve."""
    if count <= 0:
        return []
    out: list[int] = []
    limit = max(16, int(count * (np.log(count + 1) + np.log(np.log(count + 3)) + 2)))
    while len(out) < count:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(limit ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        out = np.flatnonzero(sieve).tolist()
        limit *= 2
    return out[:count]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(p ** 0.5) + 1):
        if p % q == 0:
            return False
    return True


def _check_permutation(pi, p: int) -> np.ndarray:
    arr = np.asarray(pi, dtype=np.int64).reshape(-1)
    if arr.shape[0] != p or sorted(arr.tolist()) != list(range(p)):
        raise ValueError(f"need a permutation of 0..{p - 1}")
    if arr[0] != 0:
        raise ValueError("digit permutations must fix 0")
    return arr


@dataclass(frozen=True)
class PermutationConfig:
    """One zero-fixing digit permutation per prime base, smallest base first."""

    permutations: tuple

    def __init__(self, permutations):
        ps = primes(len(permutations))
        perms = tuple(tuple(_check_permutation(pi, p)) for pi, p in zip(permutations, ps))
        object.__setattr__(self, "permutations", perms)

    @property
    def d(self) -> int:
        return len(self.permutations)

    @classmethod
    def identity(cls, d: int) -> "PermutationConfig":
        return cls([list(range(p)) for p in primes(d)])

    @classmethod
    def reverse(cls, d: int) -> "PermutationConfig":
        return cls([reverse_permutation(p) for p in primes(d)])

    @classmethod
    def random(cls, d: int, rng) -> "PermutationConfig":
        rng = np.random.default_rng(rng)
        return cls([random_permutation(p, rng) for p in primes(d)])


def _radical_inverses(i: np.ndarray, p: int, perm: np.ndarray | None = None) -> np.ndarray:
    """Base-``p`` digit reversal of every index in the int64 array ``i``, with
    digits mapped through ``perm`` if given; no validation.  Digits are added
    least significant first, so each value is the scalar digit loop's."""
    i = np.asarray(i, dtype=np.int64)
    inv = np.zeros(i.shape)
    scale = 1.0 / p
    while np.any(i > 0):
        i, digit = np.divmod(i, p)
        inv += (digit if perm is None else perm[digit]) * scale
        scale /= p
    return inv


def radical_inverse(i: int, p: int) -> float:
    """Base-``p`` digit reversal of ``1 <= i < 2**63`` mapped into (0, 1)."""
    if i < 1:
        raise ValueError("index must be >= 1")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return float(_radical_inverses(i, p))


def scrambled_radical_inverse(i: int, p: int, pi) -> float:
    """Radical inverse with digits mapped through a zero-fixing permutation.

    The permutation must fix 0 so that the implicit leading zero digits stay
    zero and the value does not depend on how many of them are written out.
    """
    if i < 1:
        raise ValueError("index must be >= 1")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return float(_radical_inverses(i, p, _check_permutation(pi, p)))


def reverse_permutation(p: int) -> list[int]:
    """The permutation fixing 0 and mapping j to p - j for j >= 1."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return [0] + [p - j for j in range(1, p)]


def random_permutation(p: int, rng) -> list[int]:
    """Uniformly random permutation of 0..p-1 fixing 0; deterministic per seed."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    rng = np.random.default_rng(rng)
    tail = rng.permutation(np.arange(1, p))
    return [0] + tail.tolist()


def halton(n: int, d: int, perms: PermutationConfig | None = None) -> PointSet:
    """First ``n`` points of the (generalized) Halton sequence, indices 1..n."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if perms is not None and perms.d < d:
        raise ValueError(f"permutation config covers {perms.d} bases, need {d}")
    idx = np.arange(1, n + 1, dtype=np.int64)
    pts = np.empty((n, d))
    for j, p in enumerate(primes(d)):
        perm = None if perms is None else np.asarray(perms.permutations[j], dtype=np.int64)
        pts[:, j] = _radical_inverses(idx, p, perm)
    return PointSet(pts)


def rank1_lattice(n: int, z) -> PointSet:
    """Rank-1 lattice {(i * z mod n) / n : i = 0..n-1} for a generating vector z."""
    if n < 1:
        raise ValueError("need n >= 1")
    zv = np.asarray(z, dtype=np.int64).reshape(-1)
    i = np.arange(n, dtype=np.int64)
    pts = ((i[:, None] * zv[None, :]) % n) / float(n)
    return PointSet(pts)


def midpoint_set(n: int) -> PointSet:
    """The 1-d set {(2i-1)/(2n)}, the unique minimizer of the star discrepancy."""
    if n < 1:
        raise ValueError("need n >= 1")
    pts = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return PointSet(pts.reshape(-1, 1))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with no self-loops."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("need at least one vertex")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) references an invalid vertex")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, n: int) -> "Graph":
        return cls(n, [(0, i) for i in range(1, n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def random(cls, n: int, p: float, rng) -> "Graph":
        rng = np.random.default_rng(rng)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        return cls(n, edges)


def dominating_set_instance(G: Graph, alpha: float = 0.5, beta: float = 0.0) -> PointSet:
    """Point set in dimension |V| encoding Dominating Set instances.

    Coordinate j of point i equals ``alpha`` when i = j or {i,j} is an edge,
    else ``beta``.  With ``beta < alpha**n`` the graph has a dominating set of
    size at most m exactly when some empty anchored half-open box with corner
    on the augmented induced grid has volume at least ``alpha**m``.
    """
    n = G.n
    if not (0.0 <= beta < alpha ** n < 1.0):
        raise ValueError("parameters must satisfy 0 <= beta < alpha**n < 1")
    pts = np.full((n, n), beta)
    for i in range(n):
        pts[i, i] = alpha
    for u, v in G.edges:
        pts[u, v] = alpha
        pts[v, u] = alpha
    return PointSet(pts)
