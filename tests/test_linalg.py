import io
import math
import random
from fractions import Fraction

import pytest
import sympy

from albanese.linalg import (
    MODULAR_PRIMES,
    bareiss_rank,
    dump_sparse_triplets,
    exact_rank,
    kernel_basis,
    modular_rank,
    sparse_rank_fraction,
)

#: the first and third primes of the two-of-three prime vote that the
#: certified engine replaced: the vote ranked a matrix with entry P0 * P2 as 0
P0, P2 = 2305843009213693951, 4611686018427387817


def random_matrix(rows, cols, rank, seed):
    """An integer matrix of known rank, built from rank-1 outer products."""
    rng = random.Random(seed)
    m = [[0] * cols for _ in range(rows)]
    for _ in range(rank):
        u = [rng.randint(-4, 4) for _ in range(rows)]
        v = [rng.randint(-4, 4) for _ in range(cols)]
        for i in range(rows):
            for j in range(cols):
                m[i][j] += u[i] * v[j]
    return m


@pytest.mark.parametrize("seed", range(6))
def test_engines_agree(seed):
    rng = random.Random(100 + seed)
    rows, cols = rng.randint(3, 8), rng.randint(3, 8)
    m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    sparse = [
        {j: v for j, v in enumerate(row) if v} for row in m
    ]
    assert exact_rank(sparse, cols) == bareiss_rank(m) == sparse_rank_fraction(sparse)


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_known_rank(rank):
    m = random_matrix(6, 7, rank, seed=rank)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
    got = exact_rank(sparse, 7)
    assert got <= rank
    if rank <= 2:  # rank-1 updates with small entries rarely collapse, verify exactly
        assert got == bareiss_rank(m)


def test_rank_invariant_under_row_order():
    m = random_matrix(6, 6, 3, seed=42)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
    forward = exact_rank(sparse, 6)
    backward = exact_rank(list(reversed(sparse)), 6)
    assert forward == backward


def test_kernel_basis_annihilates():
    m = [
        {0: 1, 1: 2, 2: 3},
        {1: 1, 2: 1, 3: 1},
    ]
    basis = kernel_basis(m, 4)
    assert len(basis) == 4 - exact_rank(m, 4)
    for vec in basis:
        for row in m:
            total = sum(row.get(j, 0) * vec.get(j, 0) for j in range(4))
            assert total == 0


def test_kernel_of_full_rank_is_trivial():
    m = [{0: 1}, {1: 2}, {2: -1}]
    assert kernel_basis(m, 3) == []


def test_fraction_rows_supported():
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(3, 2), 1: Fraction(2)}]
    assert exact_rank(rows, 2) == 2
    dependent = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(3, 2), 1: Fraction(1)}]
    assert exact_rank(dependent, 2) == 1


@pytest.mark.parametrize(
    "entry", [P0 * P2, MODULAR_PRIMES[0] * MODULAR_PRIMES[1]], ids=["vote", "two-unlucky"]
)
def test_rank_survives_unlucky_primes(entry):
    assert exact_rank([{0: entry}], 2001) == 1
    assert kernel_basis([{0: entry}], 2) == [{1: 1}]
    assert kernel_basis([{0: entry, 1: 1}, {0: 2 * entry, 1: 2}], 2) == [{0: -1, 1: entry}]
    assert kernel_basis([{0: 1, 1: entry}], 2) == [{0: -entry, 1: 1}]


def test_kernel_needs_crt():
    row = {0: 1, 1: -(2**80 + 1)}
    assert kernel_basis([row], 2) == [{0: 2**80 + 1, 1: 1}]
    assert exact_rank([row], 2) == 1


def test_modular_rank_is_reduced_echelon_form():
    p = MODULAR_PRIMES[1]
    rows = [{1: 2, 2: 4}, {0: 1, 1: 1, 2: 1}, {0: 1, 2: -1}]
    assert modular_rank(rows, p) == {1: {1: 1, 2: 2}, 0: {0: 1, 2: p - 1}}
    assert modular_rank(rows, p, stop_at=1) == {1: {1: 1, 2: 2}}


def test_primes_are_prime():
    assert all(sympy.isprime(p) for p in MODULAR_PRIMES)
    assert len(set(MODULAR_PRIMES)) == len(MODULAR_PRIMES)


@pytest.mark.parametrize("seed", range(6))
def test_kernel_basis_matches_rref_over_q(seed):
    """The certified kernel is the one read off sympy's RREF over Q."""
    rng = random.Random(200 + seed)
    rows, cols = rng.randint(2, 6), rng.randint(3, 8)
    m = random_matrix(rows, cols, rng.randint(1, min(rows, cols) - 1), seed=seed)
    m = [[v * rng.choice((1, 3)) for v in row] for row in m]
    sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
    rref, pivots = sympy.Matrix(m).rref()
    expected = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = {f: sympy.Integer(1)} | {pc: -rref[i, f] for i, pc in enumerate(pivots) if rref[i, f]}
        den = math.lcm(*(v.q for v in vec.values()))
        expected.append({c: int(v * den) for c, v in vec.items()})
    assert kernel_basis(sparse, cols) == expected
    assert exact_rank(sparse, cols) == len(pivots) == bareiss_rank(m)


def test_dump_triplets_format():
    buf = io.StringIO()
    dump_sparse_triplets([{0: 1, 2: -3}, {1: Fraction(1, 2)}], buf)
    assert buf.getvalue() == "0 0 1/1\n2 0 -3/1\n1 1 1/2\n"
