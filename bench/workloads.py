"""Query lists of the three benchmark workloads.

A query is one ``python -m albanese.cli`` invocation.  ``key`` is its
argument string, which also keys the pinned answer digests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    family: str
    fmt: str = "json"

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def stratum(self) -> str:
        """Draw group: w by format and degree, else the family."""
        if self.argv[0] == "w":
            degree = self.argv[self.argv.index("--degree") + 1]
            return f"{self.family}-{degree}"
        return self.family

    @property
    def golden(self) -> str | None:
        """Key of the golden-file table this query must reproduce, if any."""
        if self.argv[0] != "w" or self.fmt != "json" or "--rank" in self.argv:
            return None
        degree = int(self.argv[self.argv.index("--degree") + 1])
        variant = self.argv[self.argv.index("--variant") + 1]
        return f"{variant}/{degree}" if degree <= 4 else None


def w_query(degree: int, variant: str, fmt: str = "json", rank: int | None = None,
            max_degree: int = 5) -> Query:
    argv = ["w", "--degree", str(degree), "--variant", variant, "--format", fmt,
            "--max-degree", str(max_degree)]
    if rank is not None:
        argv += ["--rank", str(rank)]
    return Query(tuple(argv), f"w-{fmt}", fmt)


#: the two cold degree-7 tables; the explicit cap keeps them valid if the
#: default cap is later lowered
TABLES = (w_query(7, "full", max_degree=7), w_query(7, "outer", max_degree=7))

#: run without --workers, so the call survives the flag's removal
VERIFY = (Query(("verify", "--suite", "all"), "verify"),)

#: cache probe of the workloads whose own queries never use the cache
PROBE = w_query(3, "full")

#: IA endomorphisms (conjugations and commutator moves) for johnson --endo
ENDOS = (
    (3, {"x1": "x2 x1 x2^-1", "x2": "x2", "x3": "x3"}),
    (3, {"x1": "x1 x2 x3 x2^-1 x3^-1", "x2": "x2", "x3": "x3"}),
    (3, {"x1": "x1", "x2": "x3^-1 x2 x3", "x3": "x1 x3 x1^-1"}),
    (4, {"x1": "x1", "x2": "x2", "x3": "x3", "x4": "x1 x4 x1^-1"}),
    (4, {"x1": "x1 x3 x4 x3^-1 x4^-1", "x2": "x2", "x3": "x3", "x4": "x4"}),
    (4, {"x1": "x2 x1 x2^-1", "x2": "x3 x2 x3^-1", "x3": "x3", "x4": "x4"}),
)

#: small cross-invariant cases (n, p, q, r, s), each under half a second
CROSS_INVARIANTS = ((3, 1, 0, 0, 1), (3, 1, 0, 1, 0), (3, 1, 1, 1, 1), (4, 2, 1, 1, 2),
                    (4, 2, 1, 2, 1))


def sweep_universe() -> list[Query]:
    """Every query the sweep may draw, in a fixed order."""
    out = []
    for degree in range(1, 6):
        for variant in ("full", "outer"):
            for fmt in ("json", "tsv"):
                for rank in (None, 3 * degree, 3 * degree + 1, 3 * degree + 2):
                    out.append(w_query(degree, variant, fmt, rank))
    for target in ("w", "w-outer", "h-conj"):
        for degree in range(0, 6):
            out.append(Query(("dims", "--target", target, "--degree", str(degree)), "dims"))
    # p - q > 4 is left out: the cross-check builds W_{p-q} and the forest
    # count grows fast (aut --p 10 --q 0 takes over a minute)
    for p in range(0, 11):
        for q in range(0, 11 - p):
            if p - q <= 4:
                out.append(Query(("aut", "--p", str(p), "--q", str(q)), "aut"))
    for n in (2, 3, 4):
        for p in range(0, 5):
            for q in range(0, 5 - p):
                if p + q:
                    out.append(Query(("invariants", "--n", str(n), "--p", str(p),
                                      "--q", str(q)), "invariants"))
    for n, p, q, r, s in CROSS_INVARIANTS:
        out.append(Query(("invariants", "--n", str(n), "--p", str(p), "--q", str(q),
                          "--r", str(r), "--s", str(s)), "invariants"))
    for n in (3, 4):
        out.append(Query(("johnson", "--n", str(n), "--span"), "johnson"))
    for n, images in ENDOS:
        out.append(Query(("johnson", "--n", str(n), "--endo",
                          json.dumps(images, separators=(",", ":"))), "johnson"))
    return out


#: queries in one sweep list
SWEEP_SIZE = 50


def sweep_draw(universe: list[Query], size: int = SWEEP_SIZE) -> dict[str, int]:
    """Queries drawn per stratum: each stratum's share of the universe,
    rounded by largest remainder, ties going to the stratum listed first.

    Fixed counts give every list the same load, and splitting w by format
    and degree keeps tsv cache hits at every degree in every list.
    """
    sizes: dict[str, int] = {}
    for q in universe:
        sizes[q.stratum] = sizes.get(q.stratum, 0) + 1
    quota = {name: n * size / len(universe) for name, n in sizes.items()}
    counts = {name: int(x) for name, x in quota.items()}
    by_remainder = sorted(quota, key=lambda name: counts[name] - quota[name])
    for name in by_remainder[:size - sum(counts.values())]:
        counts[name] += 1
    return counts


def sweep_list(seed: int) -> list[Query]:
    """A seeded, stratified draw of SWEEP_SIZE queries from the universe."""
    rng = random.Random(seed)
    universe = sweep_universe()
    strata: dict[str, list[Query]] = {}
    for q in universe:
        strata.setdefault(q.stratum, []).append(q)
    picks = [q for name, k in sweep_draw(universe).items() for q in rng.sample(strata[name], k)]
    rng.shuffle(picks)
    return picks


def queries(workload: str, seed: int) -> list[Query]:
    if workload == "tables":
        return list(TABLES)
    if workload == "verify":
        return list(VERIFY)
    if workload == "sweep":
        return sweep_list(seed)
    raise ValueError(f"unknown workload {workload!r}")


#: workloads whose queries are each run twice with --cache: miss, then hit
CACHED_WORKLOADS = {"sweep"}
WORKLOADS = ("tables", "verify", "sweep")
