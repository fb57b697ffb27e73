"""Self-tests of the benchmark's own logic (no CLI process is started)."""

import json
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_stats as st  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def envelope(result, *, route="r", timing=5, version="0.1.0"):
    return json.dumps({
        "query": {"command": "w", "args": {"degree": 1}},
        "result": result,
        "provenance": {"route": route, "version": version},
        "timing_ms": timing,
    })


def test_digest_ignores_timing_and_provenance():
    a = envelope({"x": 1}, route="old route", timing=3)
    b = envelope({"x": 1}, route="new route", timing=999, version="0.2.0")
    assert st.answer_digest(a, "json") == st.answer_digest(b, "json")


def test_digest_sees_result_and_query():
    base = st.answer_digest(envelope({"x": 1}), "json")
    assert st.answer_digest(envelope({"x": 2}), "json") != base
    changed_query = json.loads(envelope({"x": 1}))
    changed_query["query"]["args"]["degree"] = 2
    assert st.answer_digest(json.dumps(changed_query), "json") != base


def test_digest_of_tsv_is_the_whole_stdout():
    assert st.answer_digest("a\tb\n", "tsv") != st.answer_digest("a\tb\n\n", "tsv")


def test_tail_percentile_needs_ten_samples_beyond():
    assert st.tail_percentile(1) == 50.0
    assert st.tail_percentile(19) == 50.0  # only 9.5 beyond the median
    assert st.tail_percentile(20) == 50.0
    assert st.tail_percentile(39) == 50.0
    assert st.tail_percentile(40) == 75.0
    assert st.tail_percentile(99) == 75.0
    assert st.tail_percentile(100) == 90.0
    assert st.tail_percentile(200) == 95.0
    assert st.tail_percentile(1000) == 99.0
    assert st.tail_percentile(10000) == 99.9


def test_percentile_interpolates():
    xs = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert st.percentile(xs, 50) == 3.0
    assert st.percentile(xs, 75) == 4.0
    assert st.percentile(xs, 90) == pytest.approx(4.6)
    assert st.percentile([7.0], 99) == 7.0


def span(sid, parent, start, end, module="m", name="f", leaf=None):
    s = {"id": sid, "parent": parent, "start": start, "end": end, "module": module, "name": name}
    if leaf:
        s["leaf"] = leaf
    return s


def test_self_time_nested_single_thread():
    spans = [span(1, None, 0, 10, "cli"), span(2, 1, 2, 6, "schur"), span(3, 2, 3, 4, "linalg")]
    shares = st.self_shares(spans)
    assert shares == pytest.approx({1: 6, 2: 3, 3: 1})


def test_self_time_overlapping_children_split_the_overlap():
    # two pool threads under one root: children overlap on [4, 6]
    spans = [span(1, None, 0, 10, "cli"), span(2, 1, 2, 6, "oracle"), span(3, 1, 4, 8, "schur")]
    shares = st.self_shares(spans)
    # root: 10 minus the union [2, 8] of its children
    assert shares[1] == pytest.approx(4)
    assert shares[2] == pytest.approx(2 + 1)  # alone on [2,4], half of [4,6]
    assert shares[3] == pytest.approx(1 + 2)  # half of [4,6], alone on [6,8]
    assert sum(shares.values()) == pytest.approx(10)


def test_union_length_merges_overlaps():
    assert st.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert st.union_length([]) == 0


def test_module_self_times_sum_to_covered_time_with_leaf_calls():
    spans = [
        span(1, None, 0, 10, "cli"),
        span(2, 1, 1, 9, "schur", leaf={"partitions": 2.0}),
        span(3, 1, 3, 5, "oracle"),
    ]
    per_span, per_module = st.attributed_self(spans)
    assert sum(per_module.values()) == pytest.approx(10)
    assert per_module["cli"] == pytest.approx(2)
    # schur shares [3,5] with oracle, so its share of the wall is 7 s; 2 of
    # its 8 uncovered seconds were partitions calls
    assert per_module["partitions"] == pytest.approx(7 * 2 / 8)
    assert per_span[2] == pytest.approx(7 * 6 / 8)


def test_inclusive_time_counts_recursion_once():
    spans = [span(1, None, 0, 10, name="main"), span(2, 1, 1, 5, name="f"),
             span(3, 2, 2, 4, name="f"), span(4, 1, 6, 7, name="f")]
    assert st.inclusive_time(spans, "f") == pytest.approx(5)


class FakeRunner:
    """Stands in for run.Runner: records each call and answers from a table."""

    def __init__(self, tmp, answers):
        self.tmp, self.count, self.answers, self.calls = tmp, 0, answers, []

    def fresh_dir(self, prefix):
        self.count += 1
        return self.tmp / f"{prefix}{self.count}"

    def cli(self, query, cache_dir, *, cache, trace):
        self.calls.append((query.key, cache_dir, cache))
        stdout = self.answers[(query.key, len(self.calls))]
        return {"seconds": 0.1, "cpu_s": 0.08, "rss_mb": 30.0, "code": 0, "timed_out": False,
                "stdout": stdout}


def test_sweep_runs_each_query_as_miss_then_hit_in_one_cache_dir(tmp_path):
    a, b = wl.w_query(1, "full", "tsv"), wl.w_query(2, "outer", "tsv")
    pins = {"verify_cases": 1, "answers": {a.key: st.answer_digest("A\n", "tsv"),
                                           b.key: st.answer_digest("B\n", "tsv")}}
    # the hit of b answers differently from its miss, as a broken cache would
    answers = {(a.key, 1): "A\n", (a.key, 2): "A\n", (b.key, 3): "B\n", (b.key, 4): "B'\n"}
    runner = FakeRunner(tmp_path, answers)
    checker = run.Checker(pins, None)
    _, samples, _ = run.run_pass(runner, checker, "sweep", [a, b])
    assert [s["role"] for s in samples] == ["miss", "hit", "miss", "hit"]
    (ka, da1, c1), (ka2, da2, _), (kb, db1, _), (kb2, db2, _) = runner.calls
    assert ka == ka2 == a.key and kb == kb2 == b.key and c1
    assert da1 == da2 and db1 == db2 and da1 != db1
    assert dict(checker.failures) == {"digest mismatch": 1}
    assert checker.examples == [f"digest mismatch: {b.key}"]


def test_end_to_end_times_are_cpu_seconds_and_wall_clock_is_kept():
    def sample(role, wall, cpu):
        return {"role": role, "seconds": wall, "cpu_s": cpu, "rss_mb": 30.0}

    passes = [
        (9.0, [sample("miss", 2.0, 1.0), sample("hit", 1.0, 0.5)], []),
        (9.0, [sample("miss", 4.0, 3.0), sample("hit", 1.0, 0.7)], []),
    ]
    setup = [{"seconds": 0.5, "cpu_s": 0.3}, {"seconds": 0.7, "cpu_s": 0.2},
             {"seconds": 0.9, "cpu_s": 0.4}]
    values, notes = run.end_to_end("sweep", setup, passes, [])
    assert values["setup_s"] == (0.3, "s")
    assert values["pass_cpu_s"] == (pytest.approx(2.6), "s")  # passes of 1.5 and 3.7
    assert values["query_cpu_p50_s"] == (pytest.approx(0.85), "s")
    assert values["miss_cpu_p50_s"] == (2.0, "s")
    assert values["hit_cpu_p50_s"] == (pytest.approx(0.6), "s")
    assert notes["wall_clock_s"]["setup"] == 0.7
    assert notes["wall_clock_s"]["miss_p50"] == 3.0


def test_sweep_list_is_seeded_and_stratified():
    a, b = wl.sweep_list(1), wl.sweep_list(1)
    assert a == b
    assert a != wl.sweep_list(2)
    strata = [q.stratum for q in a]
    for name, k in wl.sweep_draw(wl.sweep_universe()).items():
        assert strata.count(name) == k
    assert len(a) == len(set(a)) == wl.SWEEP_SIZE
    universe = set(wl.sweep_universe())
    assert all(q in universe for q in a)


def test_sweep_draw_is_proportional_by_largest_remainder():
    # strata of 5, 3 and 2 queries, 4 draws: quotas 2.0, 1.2 and 0.8
    universe = ([wl.Query(("aut", "--p", str(i)), "aut") for i in range(5)]
                + [wl.Query(("dims", str(i)), "dims") for i in range(3)]
                + [wl.Query(("johnson", str(i)), "johnson") for i in range(2)])
    assert wl.sweep_draw(universe, 4) == {"aut": 2, "dims": 1, "johnson": 1}
    universe = wl.sweep_universe()
    draw = wl.sweep_draw(universe)
    assert sum(draw.values()) == wl.SWEEP_SIZE
    for name, k in draw.items():
        share = sum(q.stratum == name for q in universe) * wl.SWEEP_SIZE / len(universe)
        assert abs(k - share) < 1


def test_golden_key_only_for_plain_json_tables_up_to_degree_four():
    assert wl.w_query(3, "outer").golden == "outer/3"
    assert wl.w_query(5, "full").golden is None
    assert wl.w_query(3, "full", "tsv").golden is None
    assert wl.w_query(3, "full", rank=9).golden is None


def test_every_universe_query_is_pinned():
    pins = json.loads((Path(__file__).resolve().parent / "pins.json").read_text())
    keys = {q.key for q in wl.sweep_universe()} | {q.key for q in wl.TABLES}
    assert keys <= set(pins["answers"])
    assert pins["verify_cases"] >= 1


def test_tracer_keeps_counts_and_spans_from_pool_threads(tmp_path):
    rec = tracer.Recorder()
    root = rec.open("main", "cli")
    rec.root_id = root["id"]
    leaf = rec.leaf(lambda x: x, "check_partition", "schur")
    spanned = rec.spanned(lambda: leaf(0), "plethysm_schur", "schur")

    def work():
        spanned()
        leaf(1)  # no open span in this thread: charged to the root

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    leaf(2)
    rec.close(root)
    out = tmp_path / "trace.json"
    rec.dump(str(out), import_s=0.0, root=root, caches={}, code=0)
    data = json.loads(out.read_text())
    assert data["leaf_counts"]["schur.check_partition"] == 3
    child = next(s for s in data["spans"] if s["name"] == "plethysm_schur")
    assert child["parent"] == root["id"]
    assert "partitions" in child["leaf"]
    assert "partitions" in next(s for s in data["spans"] if s["name"] == "main")["leaf"]
