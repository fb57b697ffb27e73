"""Run one albanese CLI query in this interpreter and record layer spans.

Usage::

    python bench/tracer.py OUT.json -- w --degree 5

The package must be importable (the benchmark sets PYTHONPATH to the
checkout's ``src``).  Before ``albanese.cli.main(argv)`` runs, the public
callables at each layer boundary are rebound, in every albanese module
that holds them, to wrappers that record a span (name, start, end, parent,
module) or, for the partitions helpers called hundreds of thousands of
times, only a count and a time charged to the caller's innermost span.
Each thread keeps its own parent stack, because ``verify`` runs its suites
on a thread pool; a thread with no open span parents to the query's root
span.  Spans stay in memory and are written to OUT.json when the query
ends, together with the ``cache_info()`` of the memoised functions.  The
query's stdout and exit code are those of the plain CLI.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: functions, by home module, that record one span per call: every call
#: that crosses from one module into another, so each module's self time is
#: its own, plus the internal calls the per-layer metrics name
SPANNED = {
    "cli": ("cache_load", "cache_store", "decomposition_payload", "polynomial_payload",
            "decomposition_tsv", "emit"),
    "homology": ("albanese_w", "albanese_dim_polynomial", "conjectural_cohomology_dim",
                 "verify_io_splitting"),
    "schur": ("plethysm_schur", "graded_symmetric_power", "traceless_product",
              "tensor_by_standard", "dim_polynomial", "evaluate_at_rank",
              "multiplicity_pairing", "decompose_mixed_tensor"),
    "oracle": ("cross_traceless_invariant_dim", "omega_prime_verify", "omega_prime_rank",
               "invariant_dim", "build_rep", "character_decompose", "decompose_weights",
               "weights_of"),
    "linalg": ("exact_rank", "kernel_basis", "bareiss_rank", "sparse_rank_fraction",
               "modular_rank"),
    "forests": ("stable_aut_cohomology_dim", "cross_check_invariants", "count_wheeled_prop"),
    "johnson": ("tau_span_dim", "johnson_tau"),
}

#: partitions helpers that are only counted and timed (no span each)
LEAVES = ("check_partition", "schur_product", "symmetric_group_character",
          "partitions_of", "conjugate", "centralizer_order", "specht_dim")

#: memoised functions whose cache_info() is reported
CACHED = {
    "schur": ("dim_irrep",),
    "partitions": ("lr_coefficient", "symmetric_group_character"),
}

MODULES = ("cli", "homology", "schur", "partitions", "forests", "oracle", "linalg", "johnson")


class _ThreadState(threading.local):
    """Per-thread span stack and leaf counters.

    ``__init__`` runs once in every thread that touches the object; it
    registers that thread's own dicts, since reading the attributes later
    from the main thread would see only the main thread's values.
    """

    def __init__(self, registry: list):
        self.stack: list[dict] = []
        self.leaf_counts: dict[str, int] = defaultdict(int)
        self.orphan_leaf: dict[str, float] = defaultdict(float)
        registry.append((self.leaf_counts, self.orphan_leaf))


def _rows_info(args, kwargs):
    """Materialise a rank call's rows once and describe the matrix."""
    rows, ncols = [dict(r) for r in args[0]], args[1]
    key = hash((ncols, tuple(frozenset(r.items()) for r in rows)))
    info = {"rows": len(rows), "cols": ncols, "nnz": sum(len(r) for r in rows), "key": key}
    return (rows, ncols, *args[2:]), kwargs, info


def _args_info(args, kwargs):
    return args, kwargs, {"key": repr((args, sorted(kwargs.items())))}


#: per-function hooks: prepare(args, kwargs) -> (args, kwargs, info)
PREPARE = {
    "exact_rank": _rows_info,
    "plethysm_schur": _args_info,
    "graded_symmetric_power": _args_info,
}

#: per-function hooks: describe(result) -> info merged into the span
DESCRIBE = {
    "traceless_product": lambda r: {"terms": len(r)},
    "cache_load": lambda r: {"hit": r is not None},
}


class Recorder:
    """Holds the spans and counters of one traced query."""

    def __init__(self):
        self.spans: list[dict] = []
        self.ids = itertools.count(1)
        self.threads: list[tuple[dict, dict]] = []
        self.tls = _ThreadState(self.threads)
        self.root_id = None

    def open(self, name: str, module: str) -> dict:
        stack = self.tls.stack
        span = {
            "id": next(self.ids),
            "name": name,
            "module": module,
            "parent": stack[-1]["id"] if stack else self.root_id,
            "start": perf_counter(),
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self.tls.stack.pop()
        self.spans.append(span)

    def spanned(self, fn, name: str, module: str):
        prepare, describe = PREPARE.get(name), DESCRIBE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = None
            if prepare is not None:
                args, kwargs, info = prepare(args, kwargs)
            span = self.open(name, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info:
                span.update(info)
            if describe is not None:
                span.update(describe(result))
            return result

        return wrapper

    def leaf(self, fn, name: str, caller: str):
        counter = f"{caller}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                state = self.tls
                state.leaf_counts[counter] += 1
                if state.stack:
                    top = state.stack[-1]
                    leaf = top.setdefault("leaf", {})
                    leaf["partitions"] = leaf.get("partitions", 0.0) + elapsed
                else:
                    state.orphan_leaf["partitions"] += elapsed

        return wrapper

    def install(self, modules: dict) -> None:
        """Rebind every layer-boundary callable in each module holding it."""
        for home, names in SPANNED.items():
            for name in names:
                original = getattr(modules[home], name)
                wrapped = self.spanned(original, name, home)
                for mod in modules.values():
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapped)
        for name in LEAVES:
            original = getattr(modules["partitions"], name)
            for caller, mod in modules.items():
                if caller != "partitions" and getattr(mod, name, None) is original:
                    setattr(mod, name, self.leaf(original, name, caller))

    def dump(self, path: str, *, import_s: float, root: dict, caches: dict, code: int) -> None:
        counts: dict[str, int] = defaultdict(int)
        for leaf_counts, orphan_leaf in self.threads:
            for k, v in leaf_counts.items():
                counts[k] += v
            for mod, secs in orphan_leaf.items():
                leaf = root.setdefault("leaf", {})
                leaf[mod] = leaf.get(mod, 0.0) + secs
        with open(path, "w") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "exit_code": code,
                    "spans": self.spans,
                    "leaf_counts": counts,
                    "caches": caches,
                },
                fh,
            )


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py OUT.json -- CLI-ARGS...\n")
        return 2
    out_path, cli_args = argv[0], argv[2:]
    started = perf_counter()
    import albanese.cli  # the import users pay on every CLI call
    import_s = perf_counter() - started

    modules = {m: sys.modules[f"albanese.{m}"] for m in MODULES}
    rec = Recorder()
    rec.install(modules)
    root = rec.open("main", "cli")
    rec.root_id = root["id"]
    code = 1
    try:
        code = albanese.cli.main(cli_args)
    finally:
        rec.close(root)
        sys.stdout.flush()
        caches = {
            f"{mod}.{name}": getattr(modules[mod], name).cache_info()._asdict()
            for mod, names in CACHED.items()
            for name in names
        }
        rec.dump(out_path, import_s=import_s, root=root, caches=caches, code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
