"""Benchmark of the albanese CLI: cold processes in a closed loop.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload tables --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --record-pins

One client runs one query at a time; each query is a fresh
``python -m albanese.cli`` process, which is how users pay for it.  The
run repeats passes over the workload's query list for ``--seconds``,
checks every answer against the pinned digests in ``pins.json``, and
prints as its last line one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of ``tracer.py`` (``--trace 1``).
It exits 1 when any query failed and 2 when the program is missing.
``--record-pins`` re-records the digests from the current code; run it
only when the pinned answers are meant to change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import bench_stats as st  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
GOLDEN = ROOT / "tests" / "golden_w_tables.json"
TMP_PARENT = ROOT / ".bench_tmp"

SETUP_PER_ROUND = 5
PROBE_PER_ROUND = 4
TIMEOUT_S = {"tables": 60.0, "verify": 90.0, "sweep": 20.0}


class Runner:
    """Spawns CLI processes with an isolated cache and records each one."""

    def __init__(self, tmp: Path, timeout: float):
        self.tmp = tmp
        self.timeout = timeout
        self.count = 0
        # numpy's OpenBLAS starts a worker thread per core at import, which
        # spins on the other core for a while in some host phases and not
        # in others, adding 0.1 s of CPU time to every process or none.
        # The program does integer array work only, which never calls BLAS.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        self.env.pop("ALBANESE_CACHE_DIR", None)

    def fresh_dir(self, prefix: str) -> Path:
        self.count += 1
        path = self.tmp / f"{prefix}{self.count}"
        path.mkdir()
        return path

    def spawn(self, argv: list[str], cache_dir: Path) -> dict:
        """Run one process to completion; return its latency, rusage and output."""
        self.count += 1
        out_path = self.tmp / f"out{self.count}"
        env = dict(self.env, ALBANESE_CACHE_DIR=str(cache_dir))
        timed_out = threading.Event()
        with open(out_path, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.DEVNULL)

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(self.timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        out_path.unlink()
        return {
            "seconds": seconds,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
            "timed_out": timed_out.is_set(),
            "stdout": stdout,
        }

    def cli(self, query: wl.Query, cache_dir: Path, *, cache: bool, trace: Path | None) -> dict:
        argv = list(query.argv) + (["--cache"] if cache else [])
        if trace is None:
            cmd = [sys.executable, "-m", "albanese.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace), "--", *argv]
        return self.spawn(cmd, cache_dir)


# ---------------------------------------------------------------------------
# answers


class Checker:
    """Compares every answer with its pin; collects failures by kind."""

    def __init__(self, pins: dict, golden: dict | None):
        self.pins = pins
        self.golden = golden
        self.golden_checks = 0
        self.failures: dict[str, int] = defaultdict(int)
        self.examples: list[str] = []

    def fail(self, kind: str, key: str) -> None:
        self.failures[kind] += 1
        if len(self.examples) < 5:
            self.examples.append(f"{kind}: {key}")

    def check(self, query: wl.Query, res: dict) -> str | None:
        """Return the answer digest, or None after recording a failure."""
        if res["timed_out"]:
            self.fail("timeout", query.key)
            return None
        if res["code"] != 0:
            self.fail(f"exit {res['code']}", query.key)
            return None
        try:
            if query.family == "verify":
                return self._check_verify(query, res["stdout"])
            digest = st.answer_digest(res["stdout"], query.fmt)
            if query.fmt == "json" and query.golden and self.golden is not None:
                self.golden_checks += 1
                if not golden_matches(json.loads(res["stdout"]), self.golden[query.golden]):
                    self.fail("golden mismatch", query.key)
                    return None
        except (ValueError, KeyError, TypeError):
            self.fail("unreadable output", query.key)
            return None
        if self.pins["answers"].get(query.key) != digest:
            self.fail("digest mismatch", query.key)
            return None
        return digest

    def _check_verify(self, query: wl.Query, stdout: str) -> str | None:
        result = json.loads(stdout)["result"]
        cases = result["cases"]
        ok = (
            result["failed"] == 0
            and result["passed"] == len(cases)
            and result["passed"] >= self.pins["verify_cases"]
            and all(c["ok"] for c in cases)
        )
        if not ok:
            self.fail("verify case failed", query.key)
            return None
        return "verify"


def golden_matches(envelope: dict, golden: dict) -> bool:
    result = envelope["result"]
    terms = [
        {k: t[k] for k in ("lambda", "mu", "multiplicity")}
        for t in result["decomposition"]["terms"]
    ]
    poly = result["dimension_polynomial"]
    return (
        terms == golden["terms"]
        and poly["coefficients"] == golden["polynomial"]
        and poly["stable_from"] == golden["stable_from"]
    )


def load_golden() -> dict | None:
    try:
        return json.loads(GOLDEN.read_text())
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# passes


def run_pass(runner: Runner, checker: Checker, workload: str, queries, *,
             variants: tuple[bool, ...] = (False,)):
    """One pass over the query list; returns its wall time, samples and traces.

    Each query runs once per entry of ``variants`` (False plain, True under
    the tracer), back to back and each with its own cache directory, so a
    traced query and its untraced twin see the same machine state.
    """
    cached = workload in wl.CACHED_WORKLOADS
    pending, traces = [], []
    start = perf_counter()
    for q in queries:
        dirs = [runner.fresh_dir("cache") for _ in variants]
        for role in ("miss", "hit") if cached else ("cold",):
            for traced, cache_dir in zip(variants, dirs):
                trace = runner.tmp / f"trace{runner.count}.json" if traced else None
                res = runner.cli(q, cache_dir, cache=cached, trace=trace)
                pending.append((q, role, traced, res))
                if trace is not None:
                    traces.append(trace)
    wall = perf_counter() - start
    samples = []
    for q, role, traced, res in pending:
        checker.check(q, res)
        samples.append({"role": role, "traced": traced, "seconds": res["seconds"],
                        "cpu_s": res["cpu_s"], "rss_mb": res["rss_mb"]})
    return wall, samples, traces


IMPORT_ONLY = [sys.executable, "-c", "import albanese.cli"]


def run_round(runner: Runner, checker: Checker, *, probe: bool) -> tuple[list[dict], list[dict]]:
    """Set-up samples and, if asked, cache-probe samples, taken between passes.

    A set-up sample is a fresh interpreter that only imports the CLI.  The
    probe is a cache miss then hit of one small fixed query, for workloads
    whose own queries never use the cache.  Rounds run before the first
    pass and after every pass, so these short samples spread over the run
    instead of meeting one moment of the host's drifting speed.
    """
    setup = []
    for _ in range(SETUP_PER_ROUND):
        res = runner.spawn(IMPORT_ONLY, runner.fresh_dir("setup"))
        if res["code"] != 0 or res["timed_out"]:
            checker.fail("setup import failed", "import albanese.cli")
        setup.append({"seconds": res["seconds"], "cpu_s": res["cpu_s"]})
    samples = []
    for _ in range(PROBE_PER_ROUND if probe else 0):
        cache_dir = runner.fresh_dir("probe")
        for role in ("miss", "hit"):
            res = runner.cli(wl.PROBE, cache_dir, cache=True, trace=None)
            checker.check(wl.PROBE, res)
            samples.append({"role": role, "seconds": res["seconds"], "cpu_s": res["cpu_s"]})
    return setup, samples


def keep_going(passes: list, seconds: float) -> bool:
    """Start another pass only if it is expected to end within the budget,
    counting the time spent in passes; there is always a first pass."""
    if not passes:
        return True
    return sum(w for w, _, _ in passes) + passes[-1][0] <= seconds


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload: str, setup: list[dict], passes: list,
               probe: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of a run, timed in CPU seconds of each process.

    A query's time is its process's user plus system CPU time, from the
    rusage ``os.wait4`` returns: what the query costs on a core of its own.
    Wall-clock time also counts the time a shared host held the process
    back (hypervisor steal, run-queue waits), which the program cannot
    change; the info line keeps the wall-clock medians.
    The tail percentile is taken per pass, where the sample count is fixed
    by the query list, so it does not change with how many passes fit in
    the run; the reported tail is the median of the per-pass tails.
    """
    per_pass = [[s["cpu_s"] for s in ss] for _, ss, _ in passes]
    samples = [s for _, ss, _ in passes for s in ss]
    cache_samples = samples if workload in wl.CACHED_WORKLOADS else probe
    # a hit is checked against the same pin as its miss, so a hit that
    # differs from its miss already failed as a digest mismatch
    misses = [s for s in cache_samples if s["role"] == "miss"]
    hits = [s for s in cache_samples if s["role"] == "hit"]
    tail_p = st.tail_percentile(len(per_pass[0]))

    def p50(xs: list[dict], key: str = "cpu_s") -> float:
        return statistics.median(x[key] for x in xs)

    metrics = {
        "setup_s": (p50(setup), "s"),
        "pass_cpu_s": (statistics.median(sum(xs) for xs in per_pass), "s"),
        "query_cpu_p50_s": (p50(samples), "s"),
        "query_cpu_tail_s": (statistics.median(st.percentile(xs, tail_p) for xs in per_pass), "s"),
        "miss_cpu_p50_s": (p50(misses), "s"),
        "hit_cpu_p50_s": (p50(hits), "s"),
        "peak_rss_mb": (statistics.median(max(s["rss_mb"] for s in ss) for _, ss, _ in passes), "MB"),
    }
    notes = {
        "passes": len(passes),
        "wall_clock_s": {
            "setup": p50(setup, "seconds"),
            "pass": statistics.median(w for w, _, _ in passes),
            "query_p50": p50(samples, "seconds"),
            "miss_p50": p50(misses, "seconds"),
            "hit_p50": p50(hits, "seconds"),
        },
        "setup_samples": len(setup),
        "query_samples": len(samples),
        "query_tail_percentile": tail_p,
        "query_samples_per_pass": len(per_pass[0]),
        "cache_source": "workload" if workload in wl.CACHED_WORKLOADS else f"probe {wl.PROBE.key}",
        "miss_samples": len(misses),
        "hit_samples": len(hits),
        "child_peak_rss_mb": sorted({round(s["rss_mb"], 1) for s in samples}),
    }
    return metrics, notes


def layer_metrics(trace_files: list[Path], wall: float) -> dict:
    """Per-layer metrics of one traced pass, summed over its queries."""
    acc: dict[str, float] = defaultdict(float)
    distinct: dict[str, int] = defaultdict(int)
    maxima: dict[str, int] = defaultdict(int)
    for path in trace_files:
        data = json.loads(path.read_text())
        spans = data["spans"]
        per_span, per_module = st.attributed_self(spans)
        acc["cli.import_s"] += data["import_s"]
        for mod in ("cli", "homology", "schur", "partitions", "forests", "oracle", "linalg",
                    "johnson"):
            acc[f"{mod}.self_s"] += per_module.get(mod, 0.0)
        for metric, name in (
            ("cli.main_s", "main"),
            ("cli.cache_load_s", "cache_load"),
            ("cli.cache_store_s", "cache_store"),
            ("homology.albanese_w_s", "albanese_w"),
            ("homology.dim_polynomial_s", "albanese_dim_polynomial"),
            ("schur.plethysm_s", "plethysm_schur"),
            ("schur.traceless_product_s", "traceless_product"),
            ("schur.dim_polynomial_s", "dim_polynomial"),
            ("linalg.rank_s", "exact_rank"),
            ("linalg.sparse_fraction_s", "sparse_rank_fraction"),
            ("linalg.kernel_basis_s", "kernel_basis"),
            ("oracle.omega_rank_s", "omega_prime_rank"),
            ("oracle.character_decompose_s", "character_decompose"),
            ("forests.cross_check_s", "cross_check_invariants"),
            ("forests.count_s", "count_wheeled_prop"),
            ("johnson.span_s", "tau_span_dim"),
        ):
            acc[metric] += st.inclusive_time(spans, name)
        for name in ("decomposition_payload", "polynomial_payload", "decomposition_tsv", "emit"):
            acc["cli.serialize_s"] += st.inclusive_time(spans, name)
        keys: dict[str, set] = defaultdict(set)
        for s in spans:
            name = s["name"]
            acc[f"calls.{name}"] += 1
            if "key" in s:
                keys[name].add(s["key"])
            if name == "albanese_w":
                acc["homology.albanese_w_self_s"] += per_span.get(s["id"], 0.0)
            elif name == "graded_symmetric_power":
                acc["schur.graded_power_self_s"] += per_span.get(s["id"], 0.0)
            elif name == "traceless_product":
                acc["schur.traceless_product_terms"] += s.get("terms", 0)
            elif name == "cache_load":
                acc["cli.cache_hits" if s.get("hit") else "cli.cache_misses"] += 1
            elif name == "exact_rank":
                acc["linalg.rank_nnz"] += s["nnz"]
                maxima["linalg.rank_max_rows"] = max(maxima["linalg.rank_max_rows"], s["rows"])
                maxima["linalg.rank_max_cols"] = max(maxima["linalg.rank_max_cols"], s["cols"])
        for name, ks in keys.items():
            distinct[name] += len(ks)
        acc["schur.check_partition_calls"] += data["leaf_counts"].get("schur.check_partition", 0)
        for cache_name, info in data["caches"].items():
            acc[f"{cache_name}.hits"] += info["hits"]
            acc[f"{cache_name}.misses"] += info["misses"]
        acc["selves"] += sum(per_module.values())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = lambda name: acc[f"calls.{name}"]  # noqa: E731
    out = {k: acc[k] for k in (
        "cli.import_s", "cli.main_s", "cli.serialize_s", "cli.cache_load_s", "cli.cache_store_s",
        "cli.self_s", "homology.albanese_w_s", "homology.albanese_w_self_s",
        "homology.dim_polynomial_s", "homology.self_s", "schur.plethysm_s",
        "schur.graded_power_self_s", "schur.traceless_product_s", "schur.dim_polynomial_s",
        "schur.self_s", "partitions.self_s", "linalg.rank_s", "linalg.sparse_fraction_s",
        "linalg.kernel_basis_s", "linalg.self_s", "oracle.self_s", "oracle.omega_rank_s",
        "oracle.character_decompose_s", "forests.cross_check_s", "forests.count_s",
        "forests.self_s", "johnson.span_s", "johnson.self_s",
    )}
    dim_hits, dim_misses = acc["schur.dim_irrep.hits"], acc["schur.dim_irrep.misses"]
    chr_hits = acc["partitions.symmetric_group_character.hits"]
    chr_misses = acc["partitions.symmetric_group_character.misses"]
    out.update({
        "cli.cache_hits": acc["cli.cache_hits"],
        "cli.cache_misses": acc["cli.cache_misses"],
        "schur.plethysm_calls": calls("plethysm_schur"),
        "schur.plethysm_distinct_ratio": ratio(distinct["plethysm_schur"], calls("plethysm_schur")),
        "schur.graded_power_calls": calls("graded_symmetric_power"),
        "schur.graded_power_distinct_ratio": ratio(distinct["graded_symmetric_power"],
                                                   calls("graded_symmetric_power")),
        "schur.traceless_product_terms": acc["schur.traceless_product_terms"],
        "schur.check_partition_calls": acc["schur.check_partition_calls"],
        "schur.dim_irrep_misses": dim_misses,
        "schur.dim_irrep_hit_ratio": ratio(dim_hits, dim_hits + dim_misses),
        "partitions.lr_misses": acc["partitions.lr_coefficient.misses"],
        "partitions.character_misses": chr_misses,
        "partitions.character_hit_ratio": ratio(chr_hits, chr_hits + chr_misses),
        "linalg.rank_calls": calls("exact_rank"),
        "linalg.rank_distinct_ratio": ratio(distinct["exact_rank"], calls("exact_rank")),
        "linalg.rank_max_rows": maxima["linalg.rank_max_rows"],
        "linalg.rank_max_cols": maxima["linalg.rank_max_cols"],
        "linalg.rank_nnz": acc["linalg.rank_nnz"],
        "linalg.bareiss_calls": calls("bareiss_rank"),
        "linalg.sparse_fraction_calls": calls("sparse_rank_fraction"),
        "linalg.modular_calls": calls("modular_rank"),
        "oracle.cross_invariant_calls": calls("cross_traceless_invariant_dim"),
        "johnson.tau_calls": calls("johnson_tau"),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - acc["selves"] - acc["cli.import_s"],
    })
    return out


def load_layer_spec() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# environment


def environment(load_start: str, ticks_start: list[int]) -> dict:
    ticks = [b - a for a, b in zip(ticks_start, read_cpu_ticks())]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "loadavg_start": load_start,
        # share of the machine's CPU time over the run that the hypervisor
        # gave to other guests (the 8th field of the cpu line)
        "steal_share": ticks[7] / sum(ticks) if len(ticks) > 7 and sum(ticks) else None,
        "loadavg_end": read_loadavg(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git
    repository (an enclosing repository's HEAD would mislabel the run)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "albanese").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def read_cpu_ticks() -> list[int]:
    """The machine-wide ``cpu`` line of /proc/stat, or [] where there is none."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return []


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# entry points


def benchmark(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> int:
    load_start, ticks_start = read_loadavg(), read_cpu_ticks()
    pins = json.loads(PINS.read_text())
    checker = Checker(pins, load_golden())
    runner = Runner(tmp, TIMEOUT_S[workload])
    queries = wl.queries(workload, seed)

    if not trace:
        probed = workload not in wl.CACHED_WORKLOADS
        runner.spawn(IMPORT_ONLY, runner.fresh_dir("setup"))  # writes the bytecode once
        setup, probe = run_round(runner, checker, probe=probed)
        passes = []
        while keep_going(passes, seconds):
            passes.append(run_pass(runner, checker, workload, queries))
            more_setup, more_probe = run_round(runner, checker, probe=probed)
            setup += more_setup
            probe += more_probe
        values, notes = end_to_end(workload, setup, passes, probe)
        attempted = sum(len(ss) for _, ss, _ in passes) + len(probe) + len(setup)
    else:
        units = load_layer_spec()
        passes = []
        while keep_going(passes, seconds):
            passes.append(run_pass(runner, checker, workload, queries, variants=(False, True)))
        per_pass, overheads, walls = [], [], {}
        for _, samples, traces in passes:
            for traced in (False, True):
                walls[traced] = sum(x["seconds"] for x in samples if x["traced"] == traced)
            per_pass.append(layer_metrics(traces, walls[True]))
            overheads.append(walls[True] - walls[False])
        values = {
            name: (statistics.median([m[name] for m in per_pass]), units[name])
            for name in units if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = (statistics.median(overheads), units["trace.overhead_s"])
        notes = {"passes": len(passes), "trace_overhead_s": overheads}
        attempted = sum(len(ss) for _, ss, _ in passes)

    failed = sum(checker.failures.values())
    info = {
        "workload": workload,
        "seed": seed,
        "queries": [q.key for q in queries],
        "failed_frac": failed / attempted,
        "failures": dict(checker.failures),
        "golden_file_read": checker.golden is not None,
        "golden_checks": checker.golden_checks,
        "failure_examples": checker.examples,
        **notes,
        "env": environment(load_start, ticks_start),
    }
    print(json.dumps(info))
    for name, (value, unit) in values.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0 if failed == 0 else 1


def record_pins(tmp: Path) -> int:
    """Run every pinned query once, cold, and write their digests."""
    golden = load_golden()
    if golden is None:
        sys.stderr.write(f"cannot read {GOLDEN}, no pins written\n")
        return 1
    runner = Runner(tmp, 120.0)
    answers, verify_cases = {}, None
    everything = list(wl.TABLES) + wl.sweep_universe() + list(wl.VERIFY)
    everything += [wl.w_query(d, v) for d in range(5) for v in ("full", "outer")]
    for q in dict.fromkeys(everything):
        res = runner.cli(q, runner.fresh_dir("pin"), cache=False, trace=None)
        print(f"{res['seconds']:8.3f}s exit {res['code']}  {q.key}", flush=True)
        if res["code"] != 0 or res["timed_out"]:
            sys.stderr.write(f"query failed, no pins written: {q.key}\n")
            return 1
        if q.family == "verify":
            result = json.loads(res["stdout"])["result"]
            if result["failed"] or not all(c["ok"] for c in result["cases"]):
                sys.stderr.write("verify reports failures, no pins written\n")
                return 1
            verify_cases = result["passed"]
            continue
        if q.golden:
            if not golden_matches(json.loads(res["stdout"]), golden[q.golden]):
                sys.stderr.write(f"golden table mismatch, no pins written: {q.key}\n")
                return 1
        answers[q.key] = st.answer_digest(res["stdout"], q.fmt)
    PINS.write_text(json.dumps({"verify_cases": verify_cases, "answers": answers}, indent=1) + "\n")
    print(f"wrote {len(answers)} digests and verify_cases={verify_cases} to {PINS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true",
                        help="re-record pins.json from the current code, then exit")
    opts = parser.parse_args(argv)
    if not (SRC / "albanese" / "cli.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'albanese'} is missing\n")
        return 2
    if not opts.record_pins and (opts.workload is None or not PINS.is_file()):
        sys.stderr.write("need --workload and a pins.json (see --record-pins)\n")
        return 2
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    try:
        if opts.record_pins:
            return record_pins(tmp)
        return benchmark(opts.workload, opts.seed, opts.seconds, bool(opts.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
