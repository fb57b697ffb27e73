"""Brute-force exact linear algebra over explicit tensor spaces at small rank.

This is the independent check on the character-level Schur calculus: no
Littlewood-Richardson rule, no plethysm, no Specht dimensions enter here.
Invariant dimensions come from joint kernels of integer-matrix group
generators, traceless subspaces from explicit contraction kernels, and
irreducible decompositions from exact weight multisets.

The invariant computations are staged: the three monomial generators
(cycle, swap, sign flip) generate the signed permutation matrices, whose
fixed space has an explicit basis of even-pattern orbit sums; the
transvection condition and any contraction conditions are then imposed on
that small space by exact rank.  The joint kernel over the full generator
set {cycle, swap, transvection, flip} of GL(n,Z) is unchanged, but the
large ambient space is never eliminated directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial

from .errors import CapacityError, ConsistencyError, InputError
from .linalg import dump_sparse_triplets, exact_rank, kernel_basis
from .partitions import Bipartition, Partition, check_partition
from .schur import Decomposition

#: cap on n^(p+q) when materializing an explicit representation
REP_CAP_DEFAULT = 20000
#: cap on the total number of words touched by a staged invariant run
STAGED_WORD_CAP = 2_000_000
#: character-level decomposition is only run at small rank
CHARACTER_RANK_CAP = 5

Word = tuple[tuple[int, ...], tuple[int, ...]]


# ---------------------------------------------------------------------------
# generator actions at word level


def generator_names(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("cycle", "flip")
    return ("cycle", "swap", "transvection", "flip")


def act_word(gen: str, n: int, word: Word) -> list[tuple[Word, int]]:
    """Image of a basis word under a group generator, as a sparse combination.

    Upper indices carry the defining action, lower indices the
    inverse-transpose action; for the monomial generators the two agree.
    """
    up, lo = word
    if gen == "cycle":
        return [((tuple(v % n + 1 for v in up), tuple(v % n + 1 for v in lo)), 1)]
    if gen == "swap":
        sw = {1: 2, 2: 1}
        return [
            (
                (
                    tuple(sw.get(v, v) for v in up),
                    tuple(sw.get(v, v) for v in lo),
                ),
                1,
            )
        ]
    if gen == "flip":
        sign = (-1) ** (up.count(1) + lo.count(1))
        return [(word, sign)]
    if gen == "transvection":
        # e_2 -> e_2 + e_1 on H; dual action is e*_1 -> e*_1 - e*_2
        branches: list[tuple[list[int], list[int], int]] = [([], [], 1)]
        for v in up:
            nxt = []
            for us, ls, c in branches:
                if v == 2:
                    nxt.append((us + [2], ls, c))
                    nxt.append((us + [1], ls, c))
                else:
                    nxt.append((us + [v], ls, c))
            branches = nxt
        for v in lo:
            nxt = []
            for us, ls, c in branches:
                if v == 1:
                    nxt.append((us, ls + [1], c))
                    nxt.append((us, ls + [2], -c))
                else:
                    nxt.append((us, ls + [v], c))
            branches = nxt
        return [((tuple(us), tuple(ls)), c) for us, ls, c in branches]
    raise InputError(f"unknown generator {gen!r}")


def act_vector(gen: str, n: int, vec: dict[Word, int]) -> dict[Word, int]:
    out: dict[Word, int] = {}
    for word, c in vec.items():
        for w2, c2 in act_word(gen, n, word):
            val = out.get(w2, 0) + c * c2
            if val:
                out[w2] = val
            else:
                out.pop(w2, None)
    return out


def contract_vector(vec: dict[Word, int], k: int, l: int) -> dict[Word, int]:
    """Apply the contraction pairing upper slot k with lower slot l."""
    out: dict[Word, int] = {}
    for (up, lo), c in vec.items():
        if up[k] == lo[l]:
            w2 = (up[:k] + up[k + 1 :], lo[:l] + lo[l + 1 :])
            val = out.get(w2, 0) + c
            if val:
                out[w2] = val
            else:
                out.pop(w2, None)
    return out


# ---------------------------------------------------------------------------
# explicit representations


class ExactTensorRep:
    """Explicit basis and generator actions for a mixed tensor space.

    The basis is all index words (i_1..i_p | j_1..j_q) with entries in 1..n,
    in lexicographic order; generator matrices are exact integer sparse
    columns.
    """

    def __init__(self, n: int, p: int, q: int, *, cap: int = REP_CAP_DEFAULT):
        if n < 1:
            raise InputError("rank must be >= 1")
        if p < 0 or q < 0:
            raise InputError("signature must be nonnegative")
        dim = n ** (p + q)
        if dim > cap:
            raise CapacityError(f"representation dimension {dim} exceeds cap {cap}")
        self.n, self.p, self.q = n, p, q
        vals = range(1, n + 1)
        self.basis: tuple[Word, ...] = tuple(
            (w[:p], w[p:]) for w in product(vals, repeat=p + q)
        )
        self.index: dict[Word, int] = {w: i for i, w in enumerate(self.basis)}
        self.generators = generator_names(n)
        self._matrices: dict[str, list[dict[int, int]]] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def generator_matrix(self, gen: str) -> list[dict[int, int]]:
        """Sparse columns of the generator action on this space."""
        if gen not in self._matrices:
            cols = []
            for word in self.basis:
                col = {}
                for w2, c in act_word(gen, self.n, word):
                    col[self.index[w2]] = col.get(self.index[w2], 0) + c
                cols.append({i: c for i, c in col.items() if c})
            self._matrices[gen] = cols
        return self._matrices[gen]

    def generator_matrices(self) -> dict[str, list[dict[int, int]]]:
        return {g: self.generator_matrix(g) for g in self.generators}


def build_rep(n: int, p: int, q: int, *, cap: int = REP_CAP_DEFAULT) -> ExactTensorRep:
    return ExactTensorRep(n, p, q, cap=cap)


@dataclass
class TracelessSubspace:
    """Joint contraction kernel inside an explicit tensor space."""

    rep: ExactTensorRep
    basis: list[dict[int, int]]
    contraction_pairs: list[tuple[int, int]]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _contraction_rows(rep: ExactTensorRep, pairs) -> list[dict[int, int]]:
    n, p, q = rep.n, rep.p, rep.q
    vals = range(1, n + 1)
    rows = []
    for k, l in pairs:
        for out_word in product(vals, repeat=p + q - 2):
            up_rest, lo_rest = out_word[: p - 1], out_word[p - 1 :]
            row = {}
            for v in vals:
                up = up_rest[:k] + (v,) + up_rest[k:]
                lo = lo_rest[:l] + (v,) + lo_rest[l:]
                row[rep.index[(up, lo)]] = 1
            rows.append(row)
    return rows


def traceless_subspace(n: int, p: int, q: int, *, cap: int = REP_CAP_DEFAULT) -> TracelessSubspace:
    """Explicit basis of the intersection of all p*q contraction kernels."""
    rep = build_rep(n, p, q, cap=cap)
    pairs = [(k, l) for k in range(p) for l in range(q)]
    if not pairs:
        basis = [{i: 1} for i in range(rep.dim)]
        return TracelessSubspace(rep, basis, [])
    rows = _contraction_rows(rep, pairs)
    return TracelessSubspace(rep, kernel_basis(rows, rep.dim), pairs)


# ---------------------------------------------------------------------------
# staged invariant dimensions


def _even_set_partitions(elements: tuple[int, ...], max_blocks: int):
    if not elements:
        yield ()
        return
    if max_blocks == 0:
        return
    first, rest = elements[0], elements[1:]
    for k in range(1, len(rest) + 1, 2):  # odd companion count = even block size
        for extra in combinations(rest, k):
            block = (first,) + extra
            remaining = tuple(x for x in rest if x not in extra)
            for sub in _even_set_partitions(remaining, max_blocks - 1):
                yield (block,) + sub


def _orbit_vectors(n: int, P: int, Q: int, *, word_cap: int = STAGED_WORD_CAP) -> list[dict[Word, int]]:
    """Basis of the fixed space of the signed permutation matrices.

    One orbit sum per assignment pattern with all value multiplicities
    even; odd-multiplicity words are killed by sign flips.
    """
    total = P + Q
    if total % 2:
        return []
    patterns = list(_even_set_partitions(tuple(range(total)), n))
    count = 0
    vectors = []
    for blocks in patterns:
        d = len(blocks)
        cls = [0] * total
        for bi, block in enumerate(blocks):
            for pos in block:
                cls[pos] = bi
        norb = 1
        for t in range(d):
            norb *= n - t
        count += norb
        if count > word_cap:
            raise CapacityError(
                f"staged invariant run would touch more than {word_cap} words"
            )
        vec = {}
        for vals in permutations(range(1, n + 1), d):
            w = tuple(vals[cls[pos]] for pos in range(total))
            vec[(w[:P], w[P:])] = 1
        vectors.append(vec)
    return vectors


def _staged_invariant_dim(
    n: int,
    P: int,
    Q: int,
    contraction_pairs,
    *,
    word_cap: int = STAGED_WORD_CAP,
) -> int:
    orbits = _orbit_vectors(n, P, Q, word_cap=word_cap)
    if not orbits:
        return 0
    rows: dict[tuple, dict[int, int]] = {}

    def put(key, idx, val):
        if val:
            rows.setdefault(key, {})[idx] = val

    for idx, vec in enumerate(orbits):
        if n >= 2:
            tv = act_vector("transvection", n, vec)
            delta = dict(tv)
            for w, c in vec.items():
                val = delta.get(w, 0) - c
                if val:
                    delta[w] = val
                else:
                    delta.pop(w, None)
            for w, c in delta.items():
                put(("t", w), idx, c)
        for ci, (k, l) in enumerate(contraction_pairs):
            for w, c in contract_vector(vec, k, l).items():
                put(("c", ci, w), idx, c)
    rank = exact_rank(rows.values(), len(orbits))
    return len(orbits) - rank


def invariant_dim(target: ExactTensorRep | TracelessSubspace, *, method: str = "staged") -> int:
    """Dimension of the GL(n,Z)-fixed subspace.

    `method="staged"` (default) reduces to the signed-permutation fixed
    space first; `method="direct"` eliminates the stacked generator
    conditions on the full explicit space, which is only feasible for
    small representations but provides a second, independent route.
    """
    if isinstance(target, TracelessSubspace):
        rep, pairs = target.rep, target.contraction_pairs
    else:
        rep, pairs = target, []
    if method == "staged":
        return _staged_invariant_dim(rep.n, rep.p, rep.q, pairs)
    if method != "direct":
        raise InputError(f"unknown method {method!r}")
    rows: list[dict[int, int]] = []
    for gen in rep.generators:
        cols = rep.generator_matrix(gen)
        gen_rows: dict[int, dict[int, int]] = {}
        for j, col in enumerate(cols):
            for i, c in col.items():
                gen_rows.setdefault(i, {})[j] = c
        for i in range(rep.dim):
            row = dict(gen_rows.get(i, {}))
            row[i] = row.get(i, 0) - 1
            if any(row.values()):
                rows.append(row)
    rows.extend(_contraction_rows(rep, pairs))
    return rep.dim - exact_rank(rows, rep.dim)


def cross_traceless_invariant_dim(n: int, p: int, q: int, r: int, s: int) -> int:
    """Invariant dimension of (traceless p,q) tensor (traceless r,s) at rank n.

    Realized inside the combined space of signature (p+r, q+s) with the
    within-factor contraction conditions only.
    """
    if n < max(p + q, r + s):
        raise InputError(f"need n >= max(p+q, r+s), got n={n}")
    pairs = [(k, l) for k in range(p) for l in range(q)]
    pairs += [(p + k, q + l) for k in range(r) for l in range(s)]
    return _staged_invariant_dim(n, p + r, q + s, pairs)


# ---------------------------------------------------------------------------
# the invariant-producing map on the group algebra


@dataclass
class ExactLinearMap:
    """Sparse exact matrix with explicit domain/codomain dimensions."""

    domain_dim: int
    codomain_dim: int
    columns: list[dict[int, int]]

    def rank(self) -> int:
        return exact_rank(self.columns, self.codomain_dim)

    def dump_triplets(self, fh) -> None:
        dump_sparse_triplets(self.columns, fh)


@dataclass
class OmegaMatrix:
    """The invariant tensors attached to permutations of p+q strands.

    Column sigma couples upper slot k with lower slot sigma(k) across the
    two factors of the (p,q)-by-(q,p) product space; all columns land in
    the GL(n,Z)-invariant subspace.
    """

    n: int
    p: int
    q: int
    sigmas: list[tuple[int, ...]]
    columns: list[dict[Word, int]]

    @property
    def codomain_signature(self) -> tuple[int, int]:
        return (self.p + self.q, self.q + self.p)

    def word_index(self, word: Word) -> int:
        idx = 0
        for v in word[0] + word[1]:
            idx = idx * self.n + (v - 1)
        return idx

    def to_linear_map(self) -> ExactLinearMap:
        cols = [
            {self.word_index(w): c for w, c in col.items()} for col in self.columns
        ]
        return ExactLinearMap(
            len(self.columns), self.n ** (2 * (self.p + self.q)), cols
        )


def _omega_column(n: int, p: int, q: int, sigma: tuple[int, ...]) -> dict[Word, int]:
    inv = [0] * len(sigma)
    for k, v in enumerate(sigma):
        inv[v] = k
    col: dict[Word, int] = {}
    for ivec in product(range(1, n + 1), repeat=p + q):
        i1 = ivec[:p]
        i2 = ivec[p:]
        j1 = tuple(ivec[inv[j]] for j in range(q))
        j2 = tuple(ivec[inv[q + j]] for j in range(p))
        col[(i1 + i2, j1 + j2)] = 1
    return col


def omega_matrix(n: int, p: int, q: int, *, word_cap: int = STAGED_WORD_CAP) -> OmegaMatrix:
    """All columns, one per permutation of the p+q strands."""
    if n < 1 or p < 0 or q < 0:
        raise InputError("bad signature")
    if factorial(p + q) * n ** (p + q) > word_cap:
        raise CapacityError("omega matrix would exceed the word cap")
    sigmas = [tuple(s) for s in permutations(range(p + q))]
    return OmegaMatrix(n, p, q, sigmas, [_omega_column(n, p, q, s) for s in sigmas])


def _cross_shuffle(p: int, q: int) -> tuple[int, ...]:
    # upper slots of factor 1 couple into factor 2 and vice versa
    return tuple(q + k for k in range(p)) + tuple(range(q))


def omega_subgroup_columns(n: int, p: int, q: int) -> list[dict[Word, int]]:
    """Columns for the p!q! permutations pairing the factors crosswise.

    These are the representatives on which the projection to the traceless
    product is faithful; block permutations inside a single factor are
    killed by the projection.
    """
    s0 = _cross_shuffle(p, q)
    cols = []
    for alpha in permutations(range(p)):
        for beta in permutations(range(q)):
            blk = tuple(alpha) + tuple(p + b for b in beta)
            sigma = tuple(s0[blk[k]] for k in range(p + q))
            cols.append(_omega_column(n, p, q, sigma))
    return cols


def omega_prime_rank(n: int, p: int, q: int) -> int:
    """Rank of the composite (project to traceless product) . (omega columns).

    Computed by pairing each column against the product of the two dual
    traceless bases; the pairing kernel is exactly the complement the
    projection quotients by, so this rank equals the rank of the
    composite.
    """
    dual1 = traceless_subspace(n, q, p)  # pairs with factor 1 of the codomain
    dual2 = traceless_subspace(n, p, q)
    b1, b2 = {}, {}  # coordinate -> [(basis vector, entry)]
    for sub, by_coord in ((dual1, b1), (dual2, b2)):
        for a, vec in enumerate(sub.basis):
            for i, c in vec.items():
                by_coord.setdefault(i, []).append((a, c))
    k2 = dual2.dimension
    rows = []
    for col in omega_subgroup_columns(n, p, q):
        row: dict[int, int] = {}
        for (up, lo), c in col.items():
            w1 = dual1.rep.index[(lo[:q], up[:p])]
            w2 = dual2.rep.index[(lo[q:], up[p:])]
            for a, x in b1.get(w1, ()):
                for b, y in b2.get(w2, ()):
                    row[a * k2 + b] = row.get(a * k2 + b, 0) + c * x * y
        rows.append(row)
    return exact_rank(rows, dual1.dimension * k2)


def omega_prime_verify(n: int, p: int, q: int) -> bool:
    """Check that the projected map is injective with invariant dim p! q!."""
    if n < p + q:
        raise InputError("the isomorphism is only asserted for n >= p+q")
    expected = factorial(p) * factorial(q)
    if cross_traceless_invariant_dim(n, p, q, q, p) != expected:
        return False
    return omega_prime_rank(n, p, q) == expected


# ---------------------------------------------------------------------------
# weight multisets and character-level decomposition

Weight = tuple[int, ...]


@dataclass(frozen=True)
class SpaceExpr:
    """Expression tree over the standard representation and its dual."""

    op: str
    args: tuple = ()
    k: int = 0
    shape: Partition = ()

    def __str__(self) -> str:
        if self.op == "std":
            return "H"
        if self.op == "dual":
            return "H*"
        if self.op == "tensor":
            return f"({self.args[0]} (x) {self.args[1]})"
        if self.op == "wedge":
            return f"wedge^{self.k}({self.args[0]})"
        if self.op == "sym":
            return f"sym^{self.k}({self.args[0]})"
        return f"S_{{{self.shape}}}({self.args[0]})"


STD = SpaceExpr("std")
DUAL = SpaceExpr("dual")


def tensor(a: SpaceExpr, b: SpaceExpr) -> SpaceExpr:
    return SpaceExpr("tensor", (a, b))


def wedge(k: int, a: SpaceExpr) -> SpaceExpr:
    return SpaceExpr("wedge", (a,), k=k)


def sym(k: int, a: SpaceExpr) -> SpaceExpr:
    return SpaceExpr("sym", (a,), k=k)


def schur_functor(shape, a: SpaceExpr) -> SpaceExpr:
    return SpaceExpr("schur", (a,), shape=check_partition(shape))


def mixed(p: int, q: int) -> SpaceExpr:
    """The p-fold standard tensor q-fold dual space as an expression."""
    expr = None
    for _ in range(p):
        expr = STD if expr is None else tensor(expr, STD)
    for _ in range(q):
        expr = DUAL if expr is None else tensor(expr, DUAL)
    if expr is None:
        raise InputError("mixed(0, 0) has no tensor factors")
    return expr


def _add_weights(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def tensor_weights(a: dict[Weight, int], b: dict[Weight, int]) -> dict[Weight, int]:
    out: dict[Weight, int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = _add_weights(wa, wb)
            out[w] = out.get(w, 0) + ca * cb
    return out


def _expand(wdict: dict[Weight, int]) -> list[Weight]:
    out = []
    for w in sorted(wdict):
        out.extend([w] * wdict[w])
    return out


def wedge_weights(wdict: dict[Weight, int], k: int) -> dict[Weight, int]:
    letters = _expand(wdict)
    out: dict[Weight, int] = {}
    for combo in combinations(range(len(letters)), k):
        w = letters[combo[0]]
        for i in combo[1:]:
            w = _add_weights(w, letters[i])
        out[w] = out.get(w, 0) + 1
    return out


def sym_weights(wdict: dict[Weight, int], k: int) -> dict[Weight, int]:
    letters = _expand(wdict)
    out: dict[Weight, int] = {}
    for combo in combinations_with_replacement(range(len(letters)), k):
        w = letters[combo[0]]
        for i in combo[1:]:
            w = _add_weights(w, letters[i])
        out[w] = out.get(w, 0) + 1
    return out


def sub_weights(a: dict[Weight, int], b: dict[Weight, int]) -> dict[Weight, int]:
    """Multiset difference; raises if b is not contained in a."""
    out = dict(a)
    for w, c in b.items():
        rem = out.get(w, 0) - c
        if rem < 0:
            raise ConsistencyError(f"weight multiset subtraction went negative at {w}")
        if rem:
            out[w] = rem
        else:
            out.pop(w, None)
    return out


def _ssyt_contents(shape: Partition, nvals: int):
    """Yield the content vector of every semistandard tableau of the shape."""
    rows = len(shape)
    if rows == 0:
        yield (0,) * nvals
        return
    cells = [(r, c) for r in range(rows) for c in range(shape[r])]
    filling: dict[tuple[int, int], int] = {}
    content = [0] * nvals

    def fill(idx: int):
        if idx == len(cells):
            yield tuple(content)
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for v in range(lo, nvals + 1):
            filling[(r, c)] = v
            content[v - 1] += 1
            yield from fill(idx + 1)
            content[v - 1] -= 1
            del filling[(r, c)]

    yield from fill(0)


def schur_weights_over(letters: list[Weight], shape: Partition) -> dict[Weight, int]:
    """Weights of the Schur functor applied to a space with the given weights."""
    out: dict[Weight, int] = {}
    for content in _ssyt_contents(shape, len(letters)):
        w = None
        for i, c in enumerate(content):
            if not c:
                continue
            piece = tuple(x * c for x in letters[i])
            w = piece if w is None else _add_weights(w, piece)
        if w is None:
            w = (0,) * (len(letters[0]) if letters else 0)
        out[w] = out.get(w, 0) + 1
    return out


def weights_of(expr: SpaceExpr, n: int) -> dict[Weight, int]:
    """Exact weight multiset of an expression at rank n."""
    if expr.op == "std":
        return {tuple(1 if j == i else 0 for j in range(n)): 1 for i in range(n)}
    if expr.op == "dual":
        return {tuple(-1 if j == i else 0 for j in range(n)): 1 for i in range(n)}
    if expr.op == "tensor":
        return tensor_weights(weights_of(expr.args[0], n), weights_of(expr.args[1], n))
    if expr.op == "wedge":
        return wedge_weights(weights_of(expr.args[0], n), expr.k)
    if expr.op == "sym":
        return sym_weights(weights_of(expr.args[0], n), expr.k)
    if expr.op == "schur":
        return schur_weights_over(_expand(weights_of(expr.args[0], n)), expr.shape)
    raise InputError(f"unknown expression node {expr.op!r}")


@cache
def irrep_weights(b: Bipartition, n: int) -> tuple[tuple[Weight, int], ...]:
    """Weight multiset of the irreducible indexed by b at rank n.

    Shift by the determinant power k = mu_1 to land on the polynomial
    Schur functor of the padded shape, enumerate its semistandard
    tableaux, and shift back.
    """
    lam, mu = b
    if len(lam) + len(mu) > n:
        return ()
    k = mu[0] if mu else 0
    padded = (
        tuple(x + k for x in lam)
        + (k,) * (n - len(lam) - len(mu))
        + tuple(k - x for x in reversed(mu))
    )
    shape = tuple(x for x in padded if x)
    out: dict[Weight, int] = {}
    for content in _ssyt_contents(shape, n):
        w = tuple(c - k for c in content)
        out[w] = out.get(w, 0) + 1
    return tuple(sorted(out.items()))


def decompose_weights(wdict: dict[Weight, int], n: int) -> Decomposition:
    """Greedy exact decomposition of a weight multiset into irreducibles.

    Repeatedly strips the lexicographically largest remaining weight,
    which is dominant and therefore a highest weight of some constituent.
    """
    remaining = {w: c for w, c in wdict.items() if c}
    terms: dict[Bipartition, int] = {}
    while remaining:
        w = max(remaining)
        if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
            raise ConsistencyError(f"leading weight {w} is not dominant")
        lam = tuple(x for x in w if x > 0)
        mu = tuple(sorted((-x for x in w if x < 0), reverse=True))
        mult = remaining[w]
        if mult < 0:
            raise ConsistencyError(f"negative multiplicity at {w}")
        b = Bipartition(lam, mu)
        for wv, c in irrep_weights(b, n):
            rem = remaining.get(wv, 0) - mult * c
            if rem < 0:
                raise ConsistencyError(f"weight {wv} oversubtracted for {b}")
            if rem:
                remaining[wv] = rem
            else:
                remaining.pop(wv, None)
        terms[b] = terms.get(b, 0) + mult
    return Decomposition(terms)


def character_decompose(expr: SpaceExpr, n: int, *, rank_cap: int = CHARACTER_RANK_CAP) -> Decomposition:
    """Decompose an explicit tensor construction into irreducibles at rank n."""
    if n > rank_cap:
        raise CapacityError(f"character decomposition capped at rank {rank_cap}")
    if n < 1:
        raise InputError("rank must be >= 1")
    return decompose_weights(weights_of(expr, n), n)
