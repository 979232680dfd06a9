"""Exact integer linear algebra over ambient lattices Z^n.

Everything here is arbitrary precision: Smith normal form intermediate
entries can overflow fixed width even on small inputs, so all matrices
are plain tuples of Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


class LatticeError(ValueError):
    pass


def _freeze(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def dot(u: Vec, v: Vec) -> int:
    if len(u) != len(v):
        raise LatticeError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(v: Vec) -> Vec:
    return tuple(-a for a in v)


def is_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


def content(v: Vec) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    return g


def primitive(v: Vec) -> Vec:
    """Divide out the gcd of the entries; the zero vector is unchanged."""
    g = content(v)
    if g <= 1:
        return tuple(v)
    return tuple(a // g for a in v)


@dataclass(frozen=True)
class LatticeMap:
    """An integer matrix Z^source_rank -> Z^target_rank (rows x columns)."""

    source_rank: int
    target_rank: int
    entries: Mat

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze(self.entries))
        if self.source_rank < 0 or self.target_rank < 0:
            raise LatticeError("ranks must be nonnegative")
        if len(self.entries) != self.target_rank:
            raise LatticeError("row count does not match target rank")
        for row in self.entries:
            if len(row) != self.source_rank:
                raise LatticeError("column count does not match source rank")

    @staticmethod
    def identity(n: int) -> "LatticeMap":
        return LatticeMap(n, n, tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def from_columns(columns, target_rank: int) -> "LatticeMap":
        cols = [tuple(c) for c in columns]
        for c in cols:
            if len(c) != target_rank:
                raise LatticeError("column length does not match target rank")
        rows = tuple(tuple(c[i] for c in cols) for i in range(target_rank))
        return LatticeMap(len(cols), target_rank, rows)

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.source_rank)]

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.source_rank:
            raise LatticeError("vector length does not match source rank")
        return tuple(dot(row, v) for row in self.entries)

    def transpose(self) -> "LatticeMap":
        return LatticeMap(self.target_rank, self.source_rank, tuple(
            tuple(self.entries[i][j] for i in range(self.target_rank))
            for j in range(self.source_rank)))


@dataclass(frozen=True)
class SmithDecomposition:
    """left * original * right = diag(diagonal), with unimodular factors."""

    left_unimodular: LatticeMap
    diagonal: tuple[int, ...]
    right_unimodular: LatticeMap


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^ambient_rank given by an injective basis matrix.

    Every constructor in this module stores the canonical row Hermite
    basis (see _row_hermite), so equal lattices have equal bases.
    """

    ambient_rank: int
    basis: LatticeMap

    def __post_init__(self):
        if self.basis.target_rank != self.ambient_rank:
            raise LatticeError("basis does not live in the ambient lattice")

    @property
    def rank(self) -> int:
        return self.basis.source_rank

    def basis_vectors(self) -> list[Vec]:
        return self.basis.columns()


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf_full(entries: Mat, nrows: int, ncols: int, inverse: bool = False):
    """Smith normal form with its transformation matrices.

    Returns (U, D, V, Uinv) as lists of lists with U*A*V = D,
    D diagonal with the divisibility chain, U,V unimodular.  Uinv, the
    inverse of U, is tracked only with inverse=True and is None
    otherwise.  Pivot choice is the minimal-absolute-value nonzero entry,
    ties broken by (row, column) position, so the output is
    deterministic.
    """
    D = [list(row) for row in entries]
    U = _identity_rows(nrows)
    Uinv = _identity_rows(nrows) if inverse else None
    V = _identity_rows(ncols)

    def row_add(i, k, q):
        # row i += q * row k
        D[i] = [a + q * b for a, b in zip(D[i], D[k])]
        U[i] = [a + q * b for a, b in zip(U[i], U[k])]
        if inverse:
            for r in range(nrows):
                Uinv[r][k] -= q * Uinv[r][i]

    def row_swap(i, k):
        D[i], D[k] = D[k], D[i]
        U[i], U[k] = U[k], U[i]
        if inverse:
            for r in range(nrows):
                Uinv[r][i], Uinv[r][k] = Uinv[r][k], Uinv[r][i]

    def row_negate(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        if inverse:
            for r in range(nrows):
                Uinv[r][i] = -Uinv[r][i]

    def col_add(j, k, q):
        # col j += q * col k
        for r in range(nrows):
            D[r][j] += q * D[r][k]
        for r in range(ncols):
            V[r][j] += q * V[r][k]

    def col_swap(j, k):
        for r in range(nrows):
            D[r][j], D[r][k] = D[r][k], D[r][j]
        for r in range(ncols):
            V[r][j], V[r][k] = V[r][k], V[r][j]

    def find_pivot(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                a = abs(D[i][j])
                if a and (best is None or a < best[0]):
                    best = (a, i, j)
        return best

    t = 0
    while t < min(nrows, ncols):
        best = find_pivot(t)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if D[t][t] < 0:
            row_negate(t)

        while True:
            # clear column t below the pivot
            restart = False
            for i in range(t + 1, nrows):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_add(i, t, -q)
                    if D[i][t] != 0:
                        row_swap(t, i)
                        if D[t][t] < 0:
                            row_negate(t)
                        restart = True
                        break
            if restart:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, ncols):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_add(j, t, -q)
                    if D[t][j] != 0:
                        col_swap(t, j)
                        if D[t][t] < 0:
                            row_negate(t)
                        restart = True
                        break
            if restart:
                continue
            # enforce the divisibility chain: fold in any non-multiple
            p = D[t][t]
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if D[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    return U, D, V, Uinv


def smith_normal_form(m: LatticeMap) -> SmithDecomposition:
    """Deterministic Smith normal form: left*m*right = diag(diagonal)."""
    U, D, V, _ = _snf_full(m.entries, m.target_rank, m.source_rank)
    k = min(m.target_rank, m.source_rank)
    diagonal = tuple(D[i][i] for i in range(k))
    left = LatticeMap(m.target_rank, m.target_rank, U)
    right = LatticeMap(m.source_rank, m.source_rank, V)
    return SmithDecomposition(left, diagonal, right)


def rank(m: LatticeMap) -> int:
    _, D, _, _ = _snf_full(m.entries, m.target_rank, m.source_rank)
    return sum(1 for i in range(min(m.target_rank, m.source_rank)) if D[i][i])


def cokernel_invariants(m: LatticeMap) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion divisors > 1) of coker(m) = Z^target / im(m)."""
    _, D, _, _ = _snf_full(m.entries, m.target_rank, m.source_rank)
    divisors = [D[i][i] for i in range(min(m.target_rank, m.source_rank)) if D[i][i]]
    free_rank = m.target_rank - len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    return free_rank, torsion


def _row_hermite(rows: list[Vec]) -> list[Vec]:
    """Canonical row Hermite form of the lattice spanned by the rows.

    Row echelon with positive pivots and entries above each pivot reduced
    into [0, pivot); the result is the unique canonical basis, so lattices
    compare by equality of bases.
    """
    work = [list(r) for r in rows if not is_zero(r)]
    if not work:
        return []
    ncols = len(work[0])
    out: list[list[int]] = []
    for col in range(ncols):
        while True:
            nonzero = sorted((r for r in work if r[col] != 0),
                             key=lambda r: abs(r[col]))
            if len(nonzero) <= 1:
                break
            piv = nonzero[0]
            for r in nonzero[1:]:
                q = r[col] // piv[col]
                for j in range(ncols):
                    r[j] -= q * piv[j]
            work = [r for r in work if any(r)]
        piv = next((r for r in work if r[col] != 0), None)
        if piv is None:
            continue
        work.remove(piv)
        if piv[col] < 0:
            piv = [-a for a in piv]
        out.append(piv)
    # reduce entries above pivots; increasing pivot order keeps earlier
    # pivot columns untouched, so each column is reduced exactly once
    for i in range(len(out)):
        pcol = next(j for j, a in enumerate(out[i]) if a != 0)
        p = out[i][pcol]
        for k in range(i):
            q = out[k][pcol] // p
            if q:
                out[k] = [a - q * b for a, b in zip(out[k], out[i])]
    return [tuple(r) for r in out]


def sublattice_from_vectors(ambient_rank: int, vectors) -> Sublattice:
    """The sublattice generated by the vectors, with canonical Hermite basis."""
    vecs = [tuple(v) for v in vectors]
    for v in vecs:
        if len(v) != ambient_rank:
            raise LatticeError("vector does not live in the ambient lattice")
    basis_rows = _row_hermite(vecs)
    return Sublattice(ambient_rank,
                      LatticeMap.from_columns(basis_rows, ambient_rank))


def zero_sublattice(ambient_rank: int) -> Sublattice:
    return Sublattice(ambient_rank, LatticeMap.from_columns([], ambient_rank))


def full_sublattice(ambient_rank: int) -> Sublattice:
    return Sublattice(ambient_rank, LatticeMap.identity(ambient_rank))


def kernel(m: LatticeMap) -> Sublattice:
    """The saturated sublattice of Z^source on which m vanishes."""
    _, D, V, _ = _snf_full(m.entries, m.target_rank, m.source_rank)
    r = sum(1 for i in range(min(m.target_rank, m.source_rank)) if D[i][i])
    cols = [tuple(V[i][j] for i in range(m.source_rank))
            for j in range(r, m.source_rank)]
    basis_rows = _row_hermite(cols)
    basis = LatticeMap.from_columns(basis_rows, m.source_rank)
    return Sublattice(m.source_rank, basis)


def image_lattice(m: LatticeMap) -> Sublattice:
    """The sublattice of Z^target generated by the columns of m."""
    return sublattice_from_vectors(m.target_rank, m.columns())


def saturate_sublattice(s: Sublattice) -> tuple[Sublattice, int]:
    """Smallest saturated sublattice containing s, and the index [sat : s]."""
    k = s.rank
    n = s.ambient_rank
    if k == 0:
        return s, 1
    _, D, _, Uinv = _snf_full(s.basis.entries, n, k, inverse=True)
    divisors = [D[i][i] for i in range(k)]
    if any(d == 0 for d in divisors):
        raise LatticeError("basis is not injective")
    index = 1
    for d in divisors:
        index *= d
    cols = [tuple(Uinv[r][i] for r in range(n)) for i in range(k)]
    basis = LatticeMap.from_columns(_row_hermite(cols), n)
    return Sublattice(n, basis), index


def complement(s: Sublattice) -> Sublattice:
    """Canonical direct complement of a saturated sublattice.

    Built from the SNF transformation of the basis matrix, so the output
    is deterministic; the concatenated bases always have determinant +-1.
    Raises LatticeError when s is not saturated, since then no direct
    complement exists.
    """
    n = s.ambient_rank
    k = s.rank
    if k == 0:
        return full_sublattice(n)
    _, D, _, Uinv = _snf_full(s.basis.entries, n, k, inverse=True)
    if any(abs(D[i][i]) != 1 for i in range(k)):
        raise LatticeError(
            "complement of an unsaturated sublattice need not exist")
    cols = [tuple(Uinv[r][i] for r in range(n)) for i in range(k, n)]
    basis = LatticeMap.from_columns(_row_hermite(cols), n)
    return Sublattice(n, basis)


class QuotientSplit:
    """The basis change Z^n = sat + complement(sat) of a saturated
    sublattice.

    inverse is the inverse of the matrix whose columns are the basis of
    sat followed by the basis of the complement, so its rows from
    sat.rank on are the coordinates of the quotient Z^n / sat.
    """

    def __init__(self, sat: Sublattice):
        n = sat.ambient_rank
        self.sub_rank = sat.rank
        self.complement = complement(sat)
        basis = LatticeMap.from_columns(
            sat.basis_vectors() + self.complement.basis_vectors(), n)
        # basis is unimodular: U*basis*V = D = diag(+-1), so its inverse
        # is V*D*U
        U, D, V, _ = _snf_full(basis.entries, n, n)
        self.inverse = LatticeMap(n, n, tuple(
            tuple(sum(V[i][k] * D[k][k] * U[k][j] for k in range(n))
                  for j in range(n)) for i in range(n)))

    def project(self, v: Vec) -> Vec:
        """Image of v in the quotient lattice Z^(n - sub_rank)."""
        return tuple(dot(r, v) for r in self.inverse.entries[self.sub_rank:])

    def section(self, q: Vec) -> Vec:
        """Canonical lift of a quotient vector (via the complement basis)."""
        return self.complement.basis.apply(q)


def coordinates_in(s: Sublattice, v: Vec) -> Vec | None:
    """Coordinates of v in the basis of s, or None if v is not in s.

    The basis is in row Hermite form, so each coordinate is read off at
    its basis vector's pivot, the first nonzero entry, and subtracted.
    """
    if len(v) != s.ambient_rank:
        raise LatticeError("vector does not live in the ambient lattice")
    w = tuple(v)
    coords = []
    for b in s.basis_vectors():
        pivot = next(j for j, a in enumerate(b) if a)
        c, r = divmod(w[pivot], b[pivot])
        if r:
            return None
        coords.append(c)
        if c:
            w = tuple(x - c * y for x, y in zip(w, b))
    return tuple(coords) if is_zero(w) else None


def lattices_equal(a: Sublattice, b: Sublattice) -> bool:
    """Equality as subsets of the ambient lattice (bases are canonical)."""
    return a.ambient_rank == b.ambient_rank and a.basis == b.basis
