"""Two-alphabet Schur calculus for stable mixed-tensor representations.

A `Decomposition` is a finite multiset of bipartitions (lam, mu) with
positive integer multiplicities, standing for a direct sum of the
irreducibles indexed by them.  The operations here stay at the character
level: traceless products expand by Littlewood-Richardson on each side,
graded-symmetric powers go through exact plethysm in the power-sum basis,
and dimensions come from the Weyl product on the padded highest weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Iterable, Iterator, Mapping

from .errors import CapacityError, ConsistencyError, InputError
from .partitions import (
    Bipartition,
    Partition,
    centralizer_order,
    check_partition,
    conjugate,
    partitions_of,
    schur_product,
    specht_dim,
    symmetric_group_character,
)

#: default cap on |outer| * |inner| for plethysm expansions
PLETHYSM_SIZE_CAP = 20

UNIT = Bipartition((), ())


def _bipartition_sort_key(b: Bipartition):
    return (b.lam, b.mu)


class Decomposition:
    """Finite multiset of bipartitions with positive multiplicities.

    Optionally tagged with a homological degree; equality compares the
    terms only (the tag is provenance metadata).
    """

    __slots__ = ("_terms", "degree")

    def __init__(
        self,
        terms: Mapping[Bipartition, int] | Iterable[tuple[Bipartition, int]] | None = None,
        degree: int | None = None,
    ):
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        clean: dict[Bipartition, int] = {}
        for b, m in items:
            b = Bipartition(check_partition(b[0]), check_partition(b[1]))
            m = int(m)
            if m < 0:
                raise InputError(f"multiplicity of {b} must be positive, got {m}")
            if m:
                clean[b] = clean.get(b, 0) + m
        self._terms = clean
        self.degree = degree

    @classmethod
    def unit(cls, degree: int | None = 0) -> "Decomposition":
        return cls({UNIT: 1}, degree=degree)

    def items(self) -> list[tuple[Bipartition, int]]:
        """Terms in canonical order: covariant then contravariant, decreasing lex."""
        return sorted(self._terms.items(), key=lambda kv: _bipartition_sort_key(kv[0]), reverse=True)

    def multiplicity(self, b: Bipartition) -> int:
        return self._terms.get(b, 0)

    def bipartitions(self) -> list[Bipartition]:
        return [b for b, _ in self.items()]

    def total_multiplicity(self) -> int:
        return sum(self._terms.values())

    def total_dim_at(self, n: int) -> int:
        return sum(m * dim_irrep(b, n) for b, m in self._terms.items())

    def scaled(self, k: int) -> "Decomposition":
        if k < 0:
            raise InputError("scale factor must be nonnegative")
        return Decomposition({b: k * m for b, m in self._terms.items()}, degree=self.degree)

    def __add__(self, other: "Decomposition") -> "Decomposition":
        merged = dict(self._terms)
        for b, m in other._terms.items():
            merged[b] = merged.get(b, 0) + m
        degree = self.degree if self.degree == other.degree else None
        return Decomposition(merged, degree=degree)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self._terms == other._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[Bipartition, int]]:
        return iter(self.items())

    def __repr__(self) -> str:
        if not self._terms:
            return "Decomposition(0)"
        body = " + ".join(
            f"V[{b}]" + (f"^{m}" if m > 1 else "") for b, m in self.items()
        )
        return f"Decomposition({body})"


@dataclass(frozen=True)
class DimensionPolynomial:
    """Polynomial in T giving a total dimension for every rank n >= stable_from.

    Coefficients are exact rationals in ascending order of T-powers.
    """

    coeffs: tuple[Fraction, ...]
    stable_from: int
    conjectural: bool = False

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, n: int) -> int | Fraction:
        v = Fraction(0)
        for c in reversed(self.coeffs):
            v = v * n + c
        return int(v) if v.denominator == 1 else v

    def __add__(self, other: "DimensionPolynomial") -> "DimensionPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (size - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (size - len(other.coeffs))
        return DimensionPolynomial(
            _trim(tuple(x + y for x, y in zip(a, b))),
            max(self.stable_from, other.stable_from),
            self.conjectural or other.conjectural,
        )

    def scaled(self, k: int) -> "DimensionPolynomial":
        return DimensionPolynomial(
            _trim(tuple(c * k for c in self.coeffs)), self.stable_from, self.conjectural
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mono = "1" if e == 0 else ("T" if e == 1 else f"T^{e}")
            if e > 0 and abs(c) == 1:
                term = mono if c > 0 else f"-{mono}"
            else:
                term = f"{c}" if e == 0 else f"{c}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


# ---------------------------------------------------------------------------
# irreducible dimensions and dimension polynomials


@cache
def dim_irrep(b: Bipartition, n: int) -> int:
    """Dimension of the irreducible indexed by b at rank n.

    Zero when l(lam) + l(mu) > n; otherwise the Weyl product over the
    padded weight (lam_1, ..., 0, ..., -mu_last, ..., -mu_1).
    """
    if n < 0:
        raise InputError("rank must be nonnegative")
    lam, mu = b
    if len(lam) + len(mu) > n:
        return 0
    w = list(lam) + [0] * (n - len(lam) - len(mu)) + [-x for x in reversed(mu)]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    if num % den:
        raise ConsistencyError(f"Weyl product {num}/{den} for {b} at rank {n} is not integral")
    return num // den


def evaluate_at_rank(d: Decomposition, n: int) -> Decomposition:
    """Drop the terms that vanish at rank n (those with l(lam)+l(mu) > n)."""
    if n < 0:
        raise InputError("rank must be nonnegative")
    return Decomposition(
        {b: m for b, m in d.items() if b.total_length <= n}, degree=d.degree
    )


def _interpolate(xs: list[int], ys: list[int]) -> tuple[Fraction, ...]:
    # Lagrange interpolation, returning ascending coefficients.
    out = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [Fraction(1)]
        den = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = [
                (num[k - 1] if k > 0 else 0) - xj * (num[k] if k < len(num) else 0)
                for k in range(len(num) + 1)
            ]
            den *= xi - xj
        scale = Fraction(yi, den)
        for k, c in enumerate(num):
            out[k] += scale * c
    return _trim(tuple(out))


def dim_polynomial(d: Decomposition, *, stable_from: int | None = None) -> DimensionPolynomial:
    """Exact polynomial with P(n) = total_dim_at(n) for n >= max l(lam)+l(mu).

    Interpolates at degree+1 integer nodes at or above that threshold; the
    degree bound is max |lam|+|mu| since each Weyl dimension is polynomial
    in n of exactly that degree.
    """
    if not d:
        return DimensionPolynomial((), stable_from if stable_from is not None else 0)
    threshold = max(b.total_length for b, _ in d.items())
    deg = max(sum(b.lam) + sum(b.mu) for b, _ in d.items())
    nodes = [threshold + t for t in range(deg + 1)]
    values = [d.total_dim_at(x) for x in nodes]
    recorded = threshold if stable_from is None else max(threshold, stable_from)
    return DimensionPolynomial(_interpolate(nodes, values), recorded)


# ---------------------------------------------------------------------------
# products


def traceless_product(d1: Decomposition, d2: Decomposition) -> Decomposition:
    """Bilinear traceless tensor product: LR expansion on each alphabet.

    No contraction terms appear: covariant sizes add and contravariant
    sizes add termwise.
    """
    terms: dict[Bipartition, int] = {}
    for b1, m1 in d1.items():
        for b2, m2 in d2.items():
            cov = schur_product(b1.lam, b2.lam)
            con = schur_product(b1.mu, b2.mu)
            for nu, c1 in cov.items():
                for kappa, c2 in con.items():
                    key = Bipartition(nu, kappa)
                    terms[key] = terms.get(key, 0) + m1 * m2 * c1 * c2
    degree = (
        d1.degree + d2.degree if d1.degree is not None and d2.degree is not None else None
    )
    return Decomposition(terms, degree=degree)


def tensor_by_standard(d: Decomposition) -> Decomposition:
    """Full (contracting) tensor with the standard representation H.

    For each V_{lam,mu}: add a box to lam in all ways, plus remove a box
    from mu in all ways.
    """
    terms: dict[Bipartition, int] = {}

    def bump(b: Bipartition, m: int) -> None:
        terms[b] = terms.get(b, 0) + m

    for b, m in d.items():
        lam, mu = b
        rows = len(lam)
        for r in range(rows + 1):
            cur = lam[r] if r < rows else 0
            above = lam[r - 1] if r > 0 else None
            if above is None or cur < above:
                new = list(lam)
                if r < rows:
                    new[r] += 1
                else:
                    new.append(1)
                bump(Bipartition(tuple(new), mu), m)
        for r in range(len(mu)):
            below = mu[r + 1] if r + 1 < len(mu) else 0
            if mu[r] > below:
                new = list(mu)
                new[r] -= 1
                bump(Bipartition(lam, tuple(x for x in new if x)), m)
    degree = d.degree
    return Decomposition(terms, degree=degree)


# ---------------------------------------------------------------------------
# plethysm and graded-symmetric powers


def _scale_partition(rho: Partition, k: int) -> Partition:
    return tuple(sorted((x * k for x in rho), reverse=True))


def _merge_partitions(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


def plethysm_schur(
    outer: Partition,
    inner: Partition,
    *,
    size_cap: int | None = None,
) -> dict[Partition, int]:
    """Exact Schur expansion of the plethysm s_outer[s_inner].

    Route: expand both in power sums, use p_k o p_l = p_{kl}, and convert
    back with symmetric-group characters.  Intermediate coefficients are
    exact rationals; the result is checked to be integral and nonnegative.
    """
    outer, inner = check_partition(outer), check_partition(inner)
    cap = PLETHYSM_SIZE_CAP if size_cap is None else size_cap
    if sum(outer) * sum(inner) > cap:
        raise CapacityError(
            f"plethysm size {sum(outer)}*{sum(inner)} exceeds cap {cap}"
        )
    if not outer:
        return {(): 1}
    if not inner:
        # empty inner alphabet: s_outer[1] is 1 for one-row shapes, else 0
        return {(): 1} if len(outer) <= 1 else {}
    return _plethysm_cached(outer, inner)


@cache
def _plethysm_power_sum(inner: Partition) -> tuple[tuple[Partition, Fraction], ...]:
    n = sum(inner)
    return tuple(
        (rho, Fraction(symmetric_group_character(inner, rho), centralizer_order(rho)))
        for rho in partitions_of(n)
    )


def _plethysm_cached(outer: Partition, inner: Partition) -> dict[Partition, int]:
    inner_p = _plethysm_power_sum(inner)
    target = sum(outer) * sum(inner)
    acc: dict[Partition, Fraction] = {}
    for rho in partitions_of(sum(outer)):
        coeff = Fraction(symmetric_group_character(outer, rho), centralizer_order(rho))
        prod: dict[Partition, Fraction] = {(): Fraction(1)}
        for r in rho:
            nxt: dict[Partition, Fraction] = {}
            for tau, c in prod.items():
                for sigma, c2 in inner_p:
                    key = _merge_partitions(tau, _scale_partition(sigma, r))
                    nxt[key] = nxt.get(key, Fraction(0)) + c * c2
            prod = nxt
        for tau, c in prod.items():
            acc[tau] = acc.get(tau, Fraction(0)) + coeff * c
    out: dict[Partition, int] = {}
    for nu in partitions_of(target):
        val = sum(
            (c * symmetric_group_character(nu, tau) for tau, c in acc.items()),
            Fraction(0),
        )
        if val.denominator != 1 or val < 0:
            raise ConsistencyError(f"plethysm s{outer}[s{inner}] has coefficient {val} at {nu}")
        if val:
            out[nu] = int(val)
    return out


def graded_symmetric_power(gen: Bipartition, degree: int, k: int) -> Decomposition:
    """k-th graded-symmetric power of a one-generator representation.

    For an even-degree generator this is h_k applied plethystically to the
    two-alphabet character s_lam(x) s_mu(y), via
    h_k[f(x) g(y)] = sum_{nu |- k} s_nu[f](x) s_nu[g](y);
    for odd degree, e_k[f(x) g(y)] = sum_{nu} s_nu[f](x) s_{nu'}[g](y).
    The contravariant part of the generator may have at most one cell.
    """
    gen = Bipartition(check_partition(gen[0]), check_partition(gen[1]))
    if k < 0:
        raise InputError("power must be nonnegative")
    if k == 0:
        return Decomposition.unit(degree=0)
    lam, mu = gen
    if sum(mu) > 1:
        raise InputError(f"unsupported generator shape {gen}: contravariant size > 1")
    terms: dict[Bipartition, int] = {}
    for nu in partitions_of(k):
        yside = nu if degree % 2 == 0 else conjugate(nu)
        if not mu:
            if len(yside) > 1:
                continue  # empty contravariant alphabet kills multi-row shapes
            ypart: Partition = ()
        else:
            ypart = yside
        for cov, c in plethysm_schur(nu, lam).items():
            key = Bipartition(cov, ypart)
            terms[key] = terms.get(key, 0) + c
    return Decomposition(terms, degree=degree * k)


# ---------------------------------------------------------------------------
# closed-form decompositions


@cache
def decompose_traceless(p: int, q: int) -> Decomposition:
    """Stable decomposition of the traceless part of p-fold-H tensor q-fold-H*.

    The multiplicity of V_{lam,mu} is dim S^lam * dim S^mu over lam |- p,
    mu |- q.
    """
    if p < 0 or q < 0:
        raise InputError("signature must be nonnegative")
    terms = {
        Bipartition(lam, mu): specht_dim(lam) * specht_dim(mu)
        for lam in partitions_of(p)
        for mu in partitions_of(q)
    }
    return Decomposition(terms)


@cache
def decompose_mixed_tensor(p: int, q: int) -> Decomposition:
    """Stable decomposition of the full mixed tensor space H^{p,q}.

    Sums the traceless decompositions of signature (p-c, q-c) with outer
    multiplicity C(p,c) C(q,c) c! over the number c of contracted pairs.
    """
    if p < 0 or q < 0:
        raise InputError("signature must be nonnegative")
    total = Decomposition()
    for c in range(min(p, q) + 1):
        mult = comb(p, c) * comb(q, c) * factorial(c)
        total = total + decompose_traceless(p - c, q - c).scaled(mult)
    return total


def multiplicity_pairing(d1: Decomposition, d2: Decomposition) -> int:
    """Schur's-lemma count of invariants in (d1)* tensor d2.

    Sum over bipartitions of the product of multiplicities.
    """
    small, big = (d1, d2) if len(d1) <= len(d2) else (d2, d1)
    return sum(m * big.multiplicity(b) for b, m in small.items())
