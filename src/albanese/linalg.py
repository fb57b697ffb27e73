"""Exact linear algebra over the rationals: one certified rank engine.

`exact_rank` and `kernel_basis` share one engine on Python ints, sparse
elimination mod p with a kernel certificate (Dumas, Saunders and Villard,
JSC 2001).  Rows are scaled to integers; for a rank the short side becomes
the columns.  `modular_rank` reduces the rows mod p to reduced row echelon
form with leftmost pivots; its r pivots pick a minor nonzero mod p, hence
over Z, so rank >= r.  Unless r is the column count, each free column f
gives a kernel vector mod p (1 at f, minus the RREF entries at the pivots
left of f), lifted by rational reconstruction and checked over Z against
every row.  The vectors are independent (the identity on the free columns),
so rank <= r; each writes column f through pivot columns left of f, so they
are the kernel basis of the RREF over Q.  A failed lift or check adds the
next prime by CRT; a prime with fewer or later pivots than the best so far
is unlucky and dropped.  After `MODULAR_PRIMES` the engine raises
`ConsistencyError`: it never returns an unproven rank or kernel.

`bareiss_rank` and `sparse_rank_fraction` share no code with the engine;
the tests compare the engine against them.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

from .errors import ConsistencyError

#: 2^61 - 1 (Mersenne), then 62-bit primes; a certificate may combine all
#: of them by CRT, which lifts kernel entries of up to about 240 bits
MODULAR_PRIMES = (2305843009213693951, 4611686018427387847, 4611686018427387817,
                  4611686018427387787, 4611686018427387761, 4611686018427387751,
                  4611686018427387737, 4611686018427387733)

Rows = Iterable[dict[int, int] | dict[int, Fraction]]


def bareiss_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of a dense integer matrix by fraction-free elimination."""
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def sparse_rank_fraction(rows: Rows) -> int:
    """Rank by incremental sparse elimination over Fraction rows."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = 1 / row[c]
                pivots[c] = {k: v * inv for k, v in row.items()}
                break
            f = row[c]
            for k, v in prow.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def modular_rank(
    rows: Sequence[dict[int, int]], p: int, *, stop_at: int | None = None
) -> dict[int, dict[int, int]]:
    """Reduced row echelon form mod p of integer rows, as pivot column -> row.

    Gauss-Jordan with leftmost pivots: pivot rows stay reduced against each
    other, so a new row is cleared in one pass.  Stops at `stop_at` pivots.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        cur: dict[int, int] = {}
        for c, v in row.items():
            prow = pivots.get(c)
            if prow is None:
                cur[c] = cur.get(c, 0) + v
            else:
                for k, w in prow.items():
                    cur[k] = cur.get(k, 0) - v * w
        cur = {k: v % p for k, v in cur.items() if k not in pivots and v % p}
        if not cur:
            continue
        c = min(cur)
        inv = pow(cur[c], -1, p)
        new = {k: v * inv % p for k, v in cur.items()}
        for prow in pivots.values():
            f = prow.get(c)
            if f:
                for k, v in new.items():
                    nv = (prow.get(k, 0) - f * v) % p
                    if nv:
                        prow[k] = nv
                    else:
                        prow.pop(k, None)
        pivots[c] = new
        if len(pivots) == stop_at:
            break
    return pivots


def _integer_rows(rows: Rows) -> list[dict[int, int]]:
    """Drop zero entries and empty rows; scale each row to integers."""
    out = []
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        if row:
            den = lcm(*(v.denominator for v in row.values()))
            out.append({c: int(v * den) for c, v in row.items()})
    return out


def _lift(kernel: dict[int, dict[int, int]], m: int) -> list[dict[int, int]] | None:
    """The vectors lifted by rational reconstruction (|n|, d <= sqrt(m/2)), or None."""
    bound = isqrt(m // 2)
    basis = []
    for vec in kernel.values():
        fracs = {}
        for c, x in vec.items():
            r0, r1, t0, t1 = m, x, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if abs(t1) > bound:
                return None
            fracs[c] = Fraction(r1, t1)
        den = lcm(*(x.denominator for x in fracs.values()))
        basis.append({c: int(x * den) for c, x in fracs.items()})
    return basis


def _annihilates(rows: list[dict[int, int]], basis: list[dict[int, int]]) -> bool:
    """Whether every row has zero product with every basis vector, over Z."""
    by_col: dict[int, list[tuple[int, int]]] = {}
    for i, vec in enumerate(basis):
        for c, v in vec.items():
            by_col.setdefault(c, []).append((i, v))
    for row in rows:
        acc: dict[int, int] = {}
        for c, a in row.items():
            for i, v in by_col.get(c, ()):
                acc[i] = acc.get(i, 0) + a * v
        if any(acc.values()):
            return False
    return True


def _certified(rows: list[dict[int, int]], ncols: int) -> tuple[int, list[dict[int, int]]]:
    """Proven rank and integer kernel basis of integer rows (see the module doc)."""
    best, kernel, m = None, {}, 1
    for p in MODULAR_PRIMES:
        pivots = modular_rank(rows, p, stop_at=ncols)
        if len(pivots) == ncols:
            return ncols, []
        order = sorted(pivots)
        residues = {f: {f: 1} for f in range(ncols) if f not in pivots}  # kernel mod p
        for pc, prow in pivots.items():
            for f, v in prow.items():
                if f != pc:
                    residues[f][pc] = p - v
        if best is None or (-len(order), order) < (-len(best), best):
            best, kernel, m = order, residues, p
        elif order == best:
            m_inv = pow(m, -1, p)
            for f, vec in kernel.items():  # CRT: x = a mod m, x = b mod p
                for c in vec.keys() | residues[f].keys():
                    a = vec.get(c, 0)
                    vec[c] = a + m * ((residues[f].get(c, 0) - a) * m_inv % p)
            m *= p
        else:
            continue
        basis = _lift(kernel, m)
        if basis is not None and _annihilates(rows, basis):
            return len(best), basis
    raise ConsistencyError(
        f"no certified rank of a {len(rows)}x{ncols} matrix in {len(MODULAR_PRIMES)} primes"
    )


def exact_rank(rows: Rows, ncols: int) -> int:
    """Proven rank over Q of a sparse-rows matrix with `ncols` columns."""
    rows = _integer_rows(rows)
    if ncols > len(rows):
        cols: dict[int, dict[int, int]] = {}
        for i, row in enumerate(rows):
            for c, v in row.items():
                cols.setdefault(c, {})[i] = v
        rows, ncols = list(cols.values()), len(rows)
    return _certified(rows, ncols)[0]


def kernel_basis(rows: Rows, ncols: int) -> list[dict[int, int]]:
    """Integer basis of the right kernel of a sparse-rows matrix.

    One vector per free column of the RREF over Q, in column order, with
    denominators cleared and a positive entry at its free column.
    """
    return _certified(_integer_rows(rows), ncols)[1]


def dump_sparse_triplets(columns: Sequence[dict[int, int] | dict[int, Fraction]], fh) -> None:
    """Write a sparse matrix, given by columns, as 'row col num/den' lines."""
    for col_idx, col in enumerate(columns):
        for row_idx in sorted(col):
            v = Fraction(col[row_idx])
            fh.write(f"{row_idx} {col_idx} {v.numerator}/{v.denominator}\n")
