"""Brute-force reference implementations used by the test suite.

Everything here recomputes results from definitions over bounded boxes,
in plain Python integers and fractions: grid scans, a pairwise
reducibility scan and rational Gaussian elimination instead of the
Smith-normal-form / double-description machinery of the main modules.
The only names taken from other logtoric modules are the containers
``RationalCone``, ``Sublattice`` and ``Vec``, so agreement between the
two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .cone import RationalCone
from .lattice import Sublattice, Vec


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class Box:
    rank: int
    lower: Vec
    upper: Vec

    def __post_init__(self):
        if len(self.lower) != self.rank or len(self.upper) != self.rank:
            raise OracleError("box bounds have wrong dimension")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise OracleError("box lower bound exceeds upper bound")

    def points(self):
        ranges = [range(l, u + 1) for l, u in zip(self.lower, self.upper)]
        return product(*ranges)


def enumerate_cone_points(c: RationalCone, b: Box) -> list[Vec]:
    """Lattice points of the box satisfying every facet inequality and
    span equation of the cone, in lexicographic order."""
    if b.rank != c.ambient_rank:
        raise OracleError("box dimension does not match the cone")
    out = []
    for p in b.points():
        if all(sum(a * x for a, x in zip(row, p)) >= 0
               for row in c.facet_normals) and \
           all(sum(a * x for a, x in zip(row, p)) == 0
               for row in c.equations):
            out.append(tuple(p))
    return out


def _irreducibles(points) -> set[Vec]:
    """The points p of a finite set of nonzero vectors such that p - q
    lies outside the set for every q in it.  Candidates q are tried from
    the smallest (in the sum of absolute values) up, because a reducible
    point usually splits off a small summand."""
    pts = sorted({tuple(p) for p in points},
                 key=lambda p: (sum(abs(x) for x in p), p))
    pset = set(pts)
    return {p for p in pts
            if not any(tuple(x - y for x, y in zip(p, q)) in pset
                       for q in pts)}


def brute_hilbert_basis(c: RationalCone, b: Box) -> set[Vec]:
    """Nonzero cone points of the box that are not sums of two nonzero
    cone points of the box."""
    return _irreducibles(p for p in enumerate_cone_points(c, b) if any(p))


def brute_ideal_membership(ideal, v: Vec, monoid_points) -> bool:
    """True iff v - g lies among the listed monoid points for some
    ideal generator g."""
    pset = set(tuple(p) for p in monoid_points)
    for g in ideal.generator_exponents:
        if tuple(x - y for x, y in zip(v, g)) in pset:
            return True
    return False


def _frac_rows(vectors):
    return [[Fraction(x) for x in v] for v in vectors]


def _row_reduce(rows):
    """In-place fraction Gaussian elimination; returns pivot columns."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def frac_rank(vectors) -> int:
    rows = _frac_rows(vectors)
    if not rows:
        return 0
    return len(_row_reduce(rows))


def frac_kernel_is_zero(columns, target_rank: int) -> bool:
    """True iff the matrix with the given columns has trivial kernel."""
    cols = list(columns)
    if not cols:
        return True
    return frac_rank(cols) == len(cols)


def _solve_exact(basis_cols, v):
    """Unique rational solution x of B x = v for independent columns, or
    None if v is outside the column span."""
    m = len(v)
    k = len(basis_cols)
    rows = [[Fraction(basis_cols[j][i]) for j in range(k)] + [Fraction(v[i])]
            for i in range(m)]
    pivots = _row_reduce(rows)
    if k in pivots:
        return None  # inconsistent
    sol = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        sol[col] = rows[r][k]
    # verify (columns may be dependent; then the system must still agree)
    for i in range(m):
        if sum(Fraction(basis_cols[j][i]) * sol[j] for j in range(k)) \
                != Fraction(v[i]):
            return None
    return sol


def brute_cone_membership(generators, v) -> bool:
    """True iff v is a nonnegative rational combination of the
    generators, by Caratheodory search over independent subsets."""
    gens = [tuple(g) for g in generators]
    v = tuple(v)
    if not any(v):
        return True
    if not gens:
        return False
    n = len(v)
    max_size = min(len(gens), n)
    for size in range(1, max_size + 1):
        for subset in combinations(gens, size):
            cols = [list(g) for g in subset]
            if frac_rank(cols) != size:
                continue
            sol = _solve_exact(cols, v)
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def brute_group_membership(group_basis: Sublattice, v) -> bool:
    """True iff v is an integer combination of the sublattice basis,
    via rational solve plus integrality check."""
    cols = [list(b) for b in group_basis.basis_vectors()]
    if not cols:
        return not any(v)
    sol = _solve_exact(cols, tuple(v))
    return sol is not None and all(x.denominator == 1 for x in sol)


def brute_saturation(generators, group_basis: Sublattice, b: Box) -> set[Vec]:
    """Irreducible elements of cone(generators) cap group within the box."""
    gens = [tuple(g) for g in generators]
    pts = []
    for p in b.points():
        if not any(p):
            continue
        if brute_cone_membership(gens, p) and \
                brute_group_membership(group_basis, p):
            pts.append(tuple(p))
    return _irreducibles(pts)


def brute_minimal_tuples(tuples) -> set[Vec]:
    """Minimal elements under componentwise order.

    A tuple strictly below t componentwise is also lexicographically
    smaller, so in lexicographic order t is minimal exactly when no
    earlier tuple is <= t.  It suffices to compare t with the earlier
    tuples kept, since every earlier tuple dropped lies above one of
    them."""
    kept: list[Vec] = []
    for t in sorted({tuple(t) for t in tuples}):
        if not any(all(x <= y for x, y in zip(m, t)) for m in kept):
            kept.append(t)
    return set(kept)
