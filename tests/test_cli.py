import json

from albanese.cli import CACHE_ENV_VAR, EXIT_CAPACITY, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main
from albanese.errors import ConsistencyError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(stdout: str) -> dict:
    return json.loads(stdout)


def canonical(stdout: str) -> dict:
    env = json.loads(stdout)
    env.pop("timing_ms", None)
    return env


class TestWCommand:
    def test_degree_one(self, capsys):
        code, out, err = run(capsys, "w", "--degree", "1")
        assert code == EXIT_OK
        env = payload(out)
        terms = env["result"]["decomposition"]["terms"]
        assert terms == [
            {"lambda": "1,1", "mu": "1", "multiplicity": 1},
            {"lambda": "1", "mu": "0", "multiplicity": 1},
        ]
        poly = env["result"]["dimension_polynomial"]
        assert poly["text"] == "1/2*T^3 - 1/2*T^2"
        assert env["provenance"]["stable_from"] == 3

    def test_outer_variant(self, capsys):
        code, out, _ = run(capsys, "w", "--degree", "1", "--variant", "outer")
        env = payload(out)
        assert env["result"]["decomposition"]["term_count"] == 1

    def test_rank_truncation_and_warning(self, capsys):
        code, out, err = run(capsys, "w", "--degree", "2", "--rank", "4")
        assert code == EXIT_OK
        env = payload(out)
        terms = env["result"]["decomposition"]["terms"]
        assert all(
            len([p for p in t["lambda"].split(",") if p != "0"])
            + len([p for p in t["mu"].split(",") if p != "0"])
            <= 4
            for t in terms
        )
        assert "warning" in env["provenance"]
        assert "below the stable range" in err

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "w", "--degree", "2")
        _, out2, _ = run(capsys, "w", "--degree", "2")
        assert canonical(out1) == canonical(out2)

    def test_envelope_carries_timing(self, capsys):
        _, out, _ = run(capsys, "w", "--degree", "1")
        env = payload(out)
        assert isinstance(env["timing_ms"], int)
        assert list(env) == ["query", "result", "provenance", "timing_ms"]

    def test_capacity_exit(self, capsys):
        code, _, err = run(capsys, "w", "--degree", "9")
        assert code == EXIT_CAPACITY
        assert "capacity" in err

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "w", "--degree", "1", "--rank", "3", "--format", "tsv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "lambda\tmu\tmultiplicity\tdim"
        assert lines[1] == "1,1\t1\t1\t6"
        assert lines[2] == "1\t0\t1\t3"


class TestAutCommand:
    def test_2_1(self, capsys):
        code, out, _ = run(capsys, "aut", "--p", "2", "--q", "1")
        assert code == EXIT_OK
        res = payload(out)["result"]
        assert res["degree"] == 1 and res["dim"] == 3 and res["routes_agree"]

    def test_1_0(self, capsys):
        _, out, _ = run(capsys, "aut", "--p", "1", "--q", "0")
        assert payload(out)["result"]["dim"] == 1

    def test_2_2(self, capsys):
        _, out, _ = run(capsys, "aut", "--p", "2", "--q", "2")
        res = payload(out)["result"]
        assert res["degree"] == 0 and res["dim"] == 2


class TestDimsCommand:
    def test_conjectural_flag(self, capsys):
        _, out, _ = run(capsys, "dims", "--target", "h-conj", "--degree", "4")
        env = payload(out)
        assert env["provenance"]["conjectural"] is True
        assert "conjectural_note" in env["provenance"]

    def test_plain_targets_not_flagged(self, capsys):
        _, out, _ = run(capsys, "dims", "--target", "w", "--degree", "2")
        assert payload(out)["provenance"]["conjectural"] is False

    def test_h_conj_matches_w_plus_one_at_degree_four(self, capsys):
        _, out_c, _ = run(capsys, "dims", "--target", "h-conj", "--degree", "4")
        _, out_w, _ = run(capsys, "dims", "--target", "w", "--degree", "4")
        cc = payload(out_c)["result"]["polynomial"]["coefficients"]
        cw = payload(out_w)["result"]["polynomial"]["coefficients"]
        assert cc[1:] == cw[1:]
        assert int(cc[0]) == int(cw[0]) + 1


class TestInvariantsCommand:
    def test_cross(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--n", "3", "--p", "2", "--q", "1", "--r", "1", "--s", "2"
        )
        assert code == EXIT_OK
        assert payload(out)["result"]["invariant_dim"] == 2

    def test_full_space(self, capsys):
        _, out, _ = run(capsys, "invariants", "--n", "2", "--p", "1", "--q", "1")
        assert payload(out)["result"]["invariant_dim"] == 1

    def test_half_cross_args_rejected(self, capsys):
        code, _, err = run(capsys, "invariants", "--n", "3", "--p", "2", "--q", "1", "--r", "1")
        assert code == EXIT_INPUT


class TestJohnsonCommand:
    def test_span(self, capsys):
        code, out, _ = run(capsys, "johnson", "--n", "3", "--span")
        assert code == EXIT_OK
        res = payload(out)["result"]
        assert res["span_dim"] == 9 == res["expected_span_dim"]

    def test_tau_of_endo(self, capsys):
        endo = '{"x1": "x2 x1 x2^-1", "x2": "x2", "x3": "x3"}'
        code, out, _ = run(capsys, "johnson", "--n", "3", "--endo", endo)
        assert code == EXIT_OK
        assert payload(out)["result"]["tau"] == [
            {"generator": 1, "b": 1, "c": 2, "coefficient": -1}
        ]

    def test_no_action_is_input_error(self, capsys):
        code, _, _ = run(capsys, "johnson", "--n", "3")
        assert code == EXIT_INPUT

    def test_non_ia_is_input_error(self, capsys):
        endo = '{"x1": "x1 x2", "x2": "x2", "x3": "x3"}'
        code, _, err = run(capsys, "johnson", "--n", "3", "--endo", endo)
        assert code == EXIT_INPUT


class TestVerifyCommand:
    def test_small_suites_pass(self, capsys):
        for suite in ("io-split", "johnson", "prop-match"):
            code, out, _ = run(capsys, "verify", "--suite", suite)
            assert code == EXIT_OK, suite
            env = payload(out)
            assert env["result"]["failed"] == 0
            assert env["result"]["passed"] > 0

    def test_failure_exits_2(self, capsys, monkeypatch):
        import albanese.cli as cli

        monkeypatch.setitem(
            cli.SUITES, "io-split", lambda: [("rigged case", False, "forced failure")]
        )
        code, out, err = run(capsys, "verify", "--suite", "io-split")
        assert code == 2
        assert payload(out)["result"]["failed"] == 1
        assert "first failure: rigged case" in err

    def test_consistency_error_exits_2(self, capsys, monkeypatch):
        import albanese.cli as cli

        def broken():
            raise ConsistencyError("rigged check")

        monkeypatch.setitem(cli.SUITES, "io-split", broken)
        code, out, err = run(capsys, "verify", "--suite", "io-split")
        assert code == EXIT_VERIFY
        assert out == ""
        assert err == "internal consistency check failed: rigged check\n"


class TestCache:
    def test_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        _, cold, _ = run(capsys, "w", "--degree", "2", "--cache")
        assert list(tmp_path.glob("*.json")), "cache file should be written"
        _, warm, _ = run(capsys, "w", "--degree", "2", "--cache")
        assert canonical(cold) == canonical(warm)
        stored = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert "timing_ms" not in stored

    def test_cache_matches_uncached(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        _, cached, _ = run(capsys, "w", "--degree", "1", "--cache")
        _, plain, _ = run(capsys, "w", "--degree", "1", "--no-cache")
        assert canonical(cached) == canonical(plain)

    def test_distinct_queries_distinct_entries(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        run(capsys, "w", "--degree", "1", "--cache")
        run(capsys, "w", "--degree", "2", "--cache")
        assert len(list(tmp_path.glob("*.json"))) == 2
