"""Command-line front end.

Every command emits a result envelope: the normalized query, the payload,
provenance (algorithm route, validity threshold, conjectural flag), and a
trailing timing field.  Identical invocations produce byte-identical
payloads once the timing field is excluded; cache entries never contain
it.

Exit codes: 0 success, 1 invalid input, 2 verification failure (a failed
case or an internal consistency check), 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .errors import CapacityError, ConsistencyError, InputError
from .forests import cross_check_invariants, stable_aut_cohomology_dim
from .homology import (
    albanese_dim_polynomial,
    albanese_w,
    conjectural_cohomology_dim,
    verify_io_splitting,
)
from .johnson import FreeEndomorphism, johnson_tau, tau_span_dim
from .oracle import (
    STD,
    character_decompose,
    cross_traceless_invariant_dim,
    invariant_dim,
    build_rep,
    omega_prime_verify,
    sym,
    tensor,
    wedge,
    DUAL,
)
from .partitions import partition_str
from .schur import (
    Decomposition,
    DimensionPolynomial,
    dim_irrep,
    evaluate_at_rank,
    graded_symmetric_power,
    plethysm_schur,
)

CACHE_ENV_VAR = "ALBANESE_CACHE_DIR"
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "albanese"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_CAPACITY = 3


# ---------------------------------------------------------------------------
# serialization


def decomposition_payload(d: Decomposition, rank: int | None = None) -> dict:
    terms = []
    for b, m in d.items():
        row = {"lambda": partition_str(b.lam), "mu": partition_str(b.mu), "multiplicity": m}
        if rank is not None:
            row["dim"] = dim_irrep(b, rank)
        terms.append(row)
    payload = {"terms": terms, "term_count": len(terms)}
    if rank is not None:
        payload["rank"] = rank
        payload["total_dim"] = d.total_dim_at(rank)
    return payload


def polynomial_payload(p: DimensionPolynomial) -> dict:
    return {
        "coefficients": [str(c) for c in p.coeffs],
        "degree": p.degree,
        "stable_from": p.stable_from,
        "text": str(p),
    }


def decomposition_tsv(d: Decomposition, rank: int | None = None) -> str:
    header = ["lambda", "mu", "multiplicity"] + (["dim"] if rank is not None else [])
    lines = ["\t".join(header)]
    for b, m in d.items():
        row = [partition_str(b.lam), partition_str(b.mu), str(m)]
        if rank is not None:
            row.append(str(dim_irrep(b, rank)))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def make_envelope(command: str, args: dict, result, provenance: dict) -> dict:
    return {
        "query": {"command": command, "args": dict(sorted(args.items()))},
        "result": result,
        "provenance": {**provenance, "version": __version__},
    }


def emit(envelope: dict, *, started: float) -> None:
    # timing is part of the envelope but excluded from the canonical payload,
    # so it goes last and cache entries never contain it
    shown = dict(envelope)
    shown["timing_ms"] = int((time.monotonic() - started) * 1000)
    sys.stdout.write(json.dumps(shown, indent=2, sort_keys=False) + "\n")


# ---------------------------------------------------------------------------
# on-disk cache (content addressed, write-temp-then-rename)


def cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV_VAR, str(DEFAULT_CACHE_DIR)))


def cache_key(command: str, args: dict) -> str:
    blob = json.dumps(
        {"command": command, "args": dict(sorted(args.items())), "version": __version__},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_load(command: str, args: dict) -> dict | None:
    path = cache_dir() / f"{cache_key(command, args)}.json"
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def cache_store(command: str, args: dict, envelope: dict) -> None:
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{cache_key(command, args)}.json"
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(envelope, indent=2))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def run_cached(use_cache: bool, command: str, args: dict, compute):
    if use_cache:
        hit = cache_load(command, args)
        if hit is not None:
            return hit
    envelope = compute()
    if use_cache:
        cache_store(command, args, envelope)
    return envelope


# ---------------------------------------------------------------------------
# commands


def cmd_w(opts) -> int:
    started = time.monotonic()
    if opts.degree > opts.max_degree:
        raise CapacityError(
            f"degree {opts.degree} exceeds cap {opts.max_degree} (raise with --max-degree)"
        )
    args = {"degree": opts.degree, "variant": opts.variant, "rank": opts.rank}

    def compute():
        d = albanese_w(opts.degree, opts.variant)
        poly = albanese_dim_polynomial(opts.degree, opts.variant)
        shown = d if opts.rank is None else evaluate_at_rank(d, opts.rank)
        result = {
            "decomposition": decomposition_payload(shown, opts.rank),
            "dimension_polynomial": polynomial_payload(poly),
        }
        provenance = {
            "route": "generator-multiset expansion with traceless products",
            "stable_from": 3 * opts.degree,
            "conjectural": False,
        }
        if opts.rank is not None and opts.rank < 3 * opts.degree:
            provenance["warning"] = (
                f"rank {opts.rank} is below the stable range n >= {3 * opts.degree}; "
                "the table is only proven there"
            )
        return make_envelope("w", args, result, provenance)

    envelope = run_cached(opts.cache, "w", args, compute)
    if opts.format == "tsv":
        d = albanese_w(opts.degree, opts.variant)
        shown = d if opts.rank is None else evaluate_at_rank(d, opts.rank)
        sys.stdout.write(decomposition_tsv(shown, opts.rank))
        sys.stderr.write(f"elapsed_ms={int((time.monotonic() - started) * 1000)}\n")
    else:
        emit(envelope, started=started)
    warning = envelope["provenance"].get("warning")
    if warning:
        sys.stderr.write(f"warning: {warning}\n")
    return EXIT_OK


def cmd_aut(opts) -> int:
    started = time.monotonic()
    if opts.p + opts.q > opts.max_size:
        raise CapacityError(f"p+q exceeds cap {opts.max_size} (raise with --max-size)")
    args = {"p": opts.p, "q": opts.q}

    def compute():
        res = stable_aut_cohomology_dim(opts.p, opts.q)
        agree = opts.p < opts.q or cross_check_invariants(opts.p, opts.q)
        result = {
            "degree": res.degree,
            "dim": res.dim,
            "stable_from": res.stable_from,
            "other_degrees": 0,
            "routes_agree": agree,
        }
        provenance = {
            "route": "wheeled forest count, cross-checked by multiplicity pairing",
            "stable_from": res.stable_from,
            "conjectural": False,
        }
        return make_envelope("aut", args, result, provenance)

    envelope = run_cached(opts.cache, "aut", args, compute)
    emit(envelope, started=started)
    return EXIT_OK if envelope["result"]["routes_agree"] else EXIT_VERIFY


def cmd_dims(opts) -> int:
    started = time.monotonic()
    args = {"target": opts.target, "degree": opts.degree}

    def compute():
        if opts.target == "w":
            poly = albanese_dim_polynomial(opts.degree, "full")
            route = "dimension polynomial of the full table"
        elif opts.target == "w-outer":
            poly = albanese_dim_polynomial(opts.degree, "outer")
            route = "dimension polynomial of the outer table"
        else:
            poly = conjectural_cohomology_dim(opts.degree)
            route = "table dimensions times polynomial-generator monomial counts"
        result = {"polynomial": polynomial_payload(poly)}
        provenance = {
            "route": route,
            "stable_from": poly.stable_from,
            "conjectural": poly.conjectural,
        }
        if poly.conjectural:
            provenance["conjectural_note"] = (
                "conditional on the stable cohomology being an algebraic representation"
            )
        return make_envelope("dims", args, result, provenance)

    emit(run_cached(opts.cache, "dims", args, compute), started=started)
    return EXIT_OK


def cmd_invariants(opts) -> int:
    started = time.monotonic()
    cross = opts.r is not None or opts.s is not None
    if cross and (opts.r is None or opts.s is None):
        raise InputError("--r and --s must be given together")
    args = {"n": opts.n, "p": opts.p, "q": opts.q, "r": opts.r, "s": opts.s}

    def compute():
        if cross:
            value = cross_traceless_invariant_dim(opts.n, opts.p, opts.q, opts.r, opts.s)
            route = "staged exact joint kernel on the traceless product"
        else:
            value = invariant_dim(build_rep(opts.n, opts.p, opts.q))
            route = "staged exact joint kernel on the full tensor space"
        result = {"invariant_dim": value}
        provenance = {"route": route, "stable_from": None, "conjectural": False}
        return make_envelope("invariants", args, result, provenance)

    emit(run_cached(opts.cache, "invariants", args, compute), started=started)
    return EXIT_OK


def cmd_johnson(opts) -> int:
    started = time.monotonic()
    if not opts.span and opts.endo is None:
        raise InputError("nothing to do: pass --span and/or --endo")
    args = {"n": opts.n, "span": opts.span, "endo": opts.endo}

    def compute():
        result = {}
        if opts.span:
            result["span_dim"] = tau_span_dim(opts.n)
            result["expected_span_dim"] = opts.n * opts.n * (opts.n - 1) // 2
        if opts.endo is not None:
            f = FreeEndomorphism.from_json(opts.endo, opts.n)
            tau = johnson_tau(f)
            result["tau"] = [
                {"generator": a, "b": b, "c": c, "coefficient": v}
                for (a, b, c), v in tau.items()
            ]
        provenance = {
            "route": "Magnus pair counting over the standard generating family",
            "stable_from": None,
            "conjectural": False,
        }
        return make_envelope("johnson", args, result, provenance)

    emit(run_cached(opts.cache, "johnson", args, compute), started=started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def _suite_omega() -> list[tuple[str, bool, str]]:
    out = []
    for n, p, q in [(2, 1, 1), (3, 2, 1), (4, 2, 2)]:
        ok = omega_prime_verify(n, p, q)
        out.append((f"omega-prime {(n, p, q)}", ok, "injective with invariant dim p!q!"))
    for n, p, q, r, s, expected in [
        (3, 1, 0, 0, 1, 1),
        (3, 1, 0, 1, 0, 0),
        (4, 2, 1, 1, 2, 2),
        (4, 2, 1, 2, 1, 0),
        (4, 2, 2, 2, 2, 4),
    ]:
        got = cross_traceless_invariant_dim(n, p, q, r, s)
        out.append(
            (
                f"cross-invariants {(n, p, q, r, s)}",
                got == expected,
                f"dim {got}, expected {expected}",
            )
        )
    return out


def _suite_prop_match() -> list[tuple[str, bool, str]]:
    out = []
    for q in range(0, 4):
        for p in range(q, min(q + 3, 6) + 1):
            ok = cross_check_invariants(p, q)
            out.append((f"prop-match {(p, q)}", ok, "pairing equals wheeled count"))
    return out


def _suite_io_split() -> list[tuple[str, bool, str]]:
    return [
        (f"io-split degree {i}", verify_io_splitting(i), "full table splits off the outer one")
        for i in range(1, 5)
    ]


def _suite_johnson() -> list[tuple[str, bool, str]]:
    out = []
    for n in (3, 4):
        got = tau_span_dim(n)
        expected = n * n * (n - 1) // 2
        out.append((f"johnson span rank {n}", got == expected, f"rank {got}"))
    return out


def _suite_plethysm() -> list[tuple[str, bool, str]]:
    from .partitions import Bipartition, conjugate, partitions_of

    out = []
    cases = [
        ("h2[e2]", (2,), (1, 1), 4, sym(2, wedge(2, STD))),
        ("e2[e2]", (1, 1), (1, 1), 4, wedge(2, wedge(2, STD))),
        ("h2[e3]", (2,), (1, 1, 1), 4, sym(2, wedge(3, STD))),
        ("h3[e2]", (3,), (1, 1), 4, sym(3, wedge(2, STD))),
    ]
    for name, outer, inner, n, expr in cases:
        lhs = {
            lam: c for lam, c in plethysm_schur(outer, inner).items() if len(lam) <= n
        }
        rhs = {b.lam: m for b, m in character_decompose(expr, n).items()}
        out.append((f"plethysm {name}", lhs == rhs, "schur expansion matches weights"))

    # corolla squared: assemble the two-alphabet power from oracle-checked
    # plethysms and check containment in the full exterior square
    from .oracle import decompose_weights, schur_functor, sub_weights, wedge_weights, weights_of

    n = 5
    gen = Bipartition((1, 1), (1,))
    lib = evaluate_at_rank(graded_symmetric_power(gen, 1, 2), n)
    assembled = {}
    for nu in partitions_of(2):
        pieces = character_decompose(schur_functor(nu, wedge(2, STD)), n)
        for b, m in pieces.items():
            key = Bipartition(b.lam, conjugate(nu))
            if key.total_length <= n:
                assembled[key] = assembled.get(key, 0) + m
    out.append(
        (
            "corolla power assembly",
            assembled == {b: m for b, m in lib.items()},
            "two-alphabet rule over oracle plethysms",
        )
    )
    full = decompose_weights(
        wedge_weights(
            sub_weights(
                weights_of(tensor(wedge(2, STD), DUAL), n), weights_of(STD, n)
            ),
            2,
        ),
        n,
    )
    contained = all(full.multiplicity(b) >= m for b, m in lib.items())
    out.append(
        ("corolla power containment", contained, "traceless part sits in the full square")
    )
    return out


SUITES = {
    "omega": _suite_omega,
    "prop-match": _suite_prop_match,
    "io-split": _suite_io_split,
    "johnson": _suite_johnson,
    "plethysm": _suite_plethysm,
}


def cmd_verify(opts) -> int:
    started = time.monotonic()
    names = list(SUITES) if opts.suite == "all" else [opts.suite]
    args = {"suite": opts.suite}
    cases = sorted((c for name in names for c in SUITES[name]()), key=lambda c: c[0])
    failures = [c for c in cases if not c[1]]
    result = {
        "cases": [{"case": c[0], "ok": c[1], "detail": c[2]} for c in cases],
        "passed": len(cases) - len(failures),
        "failed": len(failures),
    }
    provenance = {"route": "verification suites", "stable_from": None, "conjectural": False}
    emit(make_envelope("verify", args, result, provenance), started=started)
    if failures:
        sys.stderr.write("first failure: " + failures[0][0] + "\n")
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="albanese",
        description="Stable Albanese homology tables and their exact verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--cache",
            action=argparse.BooleanOptionalAction,
            default=False,
            help=f"reuse results from ${CACHE_ENV_VAR} (default {DEFAULT_CACHE_DIR})",
        )

    w = sub.add_parser("w", help="degree-i homology table with dimension polynomial")
    w.add_argument("--degree", type=int, required=True)
    w.add_argument("--variant", choices=("full", "outer"), default="full")
    w.add_argument("--rank", type=int, default=None, help="truncate to a concrete rank n")
    w.add_argument("--format", choices=("json", "tsv"), default="json")
    w.add_argument("--max-degree", type=int, default=5)
    add_common(w)
    w.set_defaults(func=cmd_w)

    aut = sub.add_parser("aut", help="stable twisted cohomology dimension of Aut(F_n)")
    aut.add_argument("--p", type=int, required=True)
    aut.add_argument("--q", type=int, required=True)
    aut.add_argument("--max-size", type=int, default=12)
    add_common(aut)
    aut.set_defaults(func=cmd_aut)

    dims = sub.add_parser("dims", help="dimension polynomials, including the conjectural one")
    dims.add_argument("--target", choices=("w", "w-outer", "h-conj"), required=True)
    dims.add_argument("--degree", type=int, required=True)
    add_common(dims)
    dims.set_defaults(func=cmd_dims)

    inv = sub.add_parser("invariants", help="exact invariant dimensions at a concrete rank")
    inv.add_argument("--n", type=int, required=True)
    inv.add_argument("--p", type=int, required=True)
    inv.add_argument("--q", type=int, required=True)
    inv.add_argument("--r", type=int, default=None)
    inv.add_argument("--s", type=int, default=None)
    add_common(inv)
    inv.set_defaults(func=cmd_invariants)

    joh = sub.add_parser("johnson", help="Johnson invariant values and span rank")
    joh.add_argument("--n", type=int, required=True)
    joh.add_argument("--span", action="store_true")
    joh.add_argument("--endo", type=str, default=None, help='JSON like {"x1": "x2 x1 x2^-1", ...}')
    add_common(joh)
    joh.set_defaults(func=cmd_johnson)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument(
        "--suite", choices=tuple(SUITES) + ("all",), default="all"
    )
    add_common(ver)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    try:
        return opts.func(opts)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except CapacityError as exc:
        sys.stderr.write(f"capacity: {exc}\n")
        return EXIT_CAPACITY
    except ConsistencyError as exc:
        sys.stderr.write(f"internal consistency check failed: {exc}\n")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
