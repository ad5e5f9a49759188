import json
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from multiewens import allele_stats, measure, samplers, wf_sim, wreath
from multiewens.cli import main
from multiewens.partitions import (
    count_multipartitions,
    multipartition_from_lists,
    multipartition_to_lists,
)
from multiewens.wf_sim import Population, stationary_samples


@pytest.fixture
def runner():
    return CliRunner()


class TestPmf:
    def test_refined_single_box(self, runner):
        res = runner.invoke(main, ["pmf", "--theta", "1,2", "--partition", "[[1],[]]"])
        assert res.exit_code == 0
        rec = json.loads(res.output.strip().splitlines()[-1])
        assert rec["rational"] == "1/3"
        assert rec["prob"] == pytest.approx(1 / 3)

    def test_classical_single_row(self, runner):
        res = runner.invoke(main, ["pmf", "--theta", "1", "--partition", "[[3]]"])
        assert res.exit_code == 0
        rec = json.loads(res.output.strip().splitlines()[-1])
        assert rec["rational"] == "1/3"

    def test_rational_theta(self, runner):
        res = runner.invoke(main, ["pmf", "--theta", "1/2,1", "--partition", "[[1],[]]"])
        rec = json.loads(res.output.strip().splitlines()[-1])
        assert rec["rational"] == "1/3"

    def test_decimal_theta_notice_and_float(self, runner):
        res = runner.invoke(main, ["pmf", "--theta", "0.5,1.0", "--partition", "[[1],[]]"])
        assert res.exit_code == 0
        rec = json.loads(res.output.strip().splitlines()[-1])
        assert "rational" not in rec
        assert rec["prob"] == pytest.approx(1 / 3)
        assert "floating-point backend" in res.stderr

    def test_malformed_partition(self, runner):
        res = runner.invoke(main, ["pmf", "--theta", "1", "--partition", "[[3,]"])
        assert res.exit_code != 0
        assert "position" in res.output or "position" in res.stderr

    def test_dimension_mismatch(self, runner):
        res = runner.invoke(main, ["pmf", "--theta", "1,2,3", "--partition", "[[1],[]]"])
        assert res.exit_code != 0

    def test_joint_k(self, runner):
        res = runner.invoke(
            main, ["pmf", "--theta", "1,1", "--joint-k", "1,0", "--n", "1"]
        )
        rec = json.loads(res.output.strip().splitlines()[-1])
        assert rec["rational"] == "1/2"

    def test_wreath_element(self, runner):
        res = runner.invoke(main, [
            "pmf", "--element", '{"g": [0], "s": [0]}',
            "--group", "z2", "--t", "1,2",
        ])
        rec = json.loads(res.output.strip().splitlines()[-1])
        assert rec["rational"] == "1/3"

    def test_element_needs_no_theta(self, runner):
        res = runner.invoke(main, ["pmf", "--element", '{"g": [1], "s": [0]}',
                                   "--group", "z2", "--t", "1,2"])
        assert res.exit_code == 0 and res.stderr == ""
        assert json.loads(res.stdout)["rational"] == "2/3"

    @pytest.mark.parametrize("mode", [["--partition", "[[1],[]]"], ["--joint-k", "1,1", "--n", "3"]])
    def test_theta_required_by_the_other_modes(self, runner, mode):
        res = runner.invoke(main, ["pmf", *mode])
        assert res.exit_code == 2
        assert "Error: --partition and --joint-k need --theta" in res.stderr


class TestEnumerate:
    def test_count(self, runner):
        res = runner.invoke(main, ["enumerate", "--n", "3", "--k", "2", "--count"])
        assert res.output.strip() == "10"

    def test_stream(self, runner):
        res = runner.invoke(main, ["enumerate", "--n", "3", "--k", "2"])
        lines = res.output.strip().splitlines()
        assert len(lines) == 10
        assert json.loads(lines[0]) == [[3], []]

    def test_scale_guard(self, runner):
        res = runner.invoke(main, ["enumerate", "--n", "60", "--k", "4"])
        assert res.exit_code != 0
        assert "refusing" in res.output


class TestSampling:
    def test_urn_deterministic(self, runner):
        args = ["sample-urn", "--n", "6", "--theta", "0.7,1.3",
                "--reps", "5", "--seed", "42"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        lines = [l for l in out1.splitlines() if l.startswith("[")]
        assert len(lines) == 5
        assert out1 == out2
        for line in lines:
            part = json.loads(line)
            assert sum(sum(rows) for rows in part) == 6

    def test_urn_with_blocks(self, runner):
        res = runner.invoke(main, ["sample-urn", "--n", "4", "--theta", "1,2",
                                   "--reps", "2", "--set-partitions"])
        for line in res.output.strip().splitlines():
            rec = json.loads(line)
            elements = sorted(e for b in rec["blocks"] for e in b["elements"])
            assert elements == [1, 2, 3, 4]

    def test_urn_builds_the_set_partition_only_when_asked(self, runner, monkeypatch):
        from multiewens import samplers

        def refuse(*args, **kwargs):
            raise AssertionError("set partition built")

        args = ["sample-urn", "--n", "5", "--theta", "1,2", "--reps", "3"]
        plain = runner.invoke(main, args).stdout
        monkeypatch.setattr(samplers, "_urn_blocks", refuse)
        assert runner.invoke(main, args).stdout == plain
        assert runner.invoke(main, [*args, "--set-partitions"]).exit_code != 0

    def test_crp_stream_and_project(self, runner):
        args = ["sample-crp", "--n", "3", "--group", "z2", "--t", "1,2",
                "--reps", "4", "--seed", "7"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        recs = [json.loads(l) for l in res.output.strip().splitlines()]
        assert all(sorted(r["s"]) == [0, 1, 2] for r in recs)
        res2 = runner.invoke(main, args + ["--project"])
        parts = [json.loads(l) for l in res2.output.strip().splitlines()]
        assert all(sum(sum(rows) for rows in p) == 3 for p in parts)

    def test_crp_weight_count_mismatch(self, runner):
        res = runner.invoke(main, ["sample-crp", "--n", "2", "--group", "s3",
                                   "--t", "1,2"])
        assert res.exit_code != 0

    def test_pd_stream(self, runner):
        res = runner.invoke(main, ["sample-pd", "--theta", "1,2", "--reps", "3",
                                   "--seed", "1"])
        recs = [json.loads(l) for l in res.output.strip().splitlines()]
        assert len(recs) == 3
        for rec in recs:
            assert sum(rec["deltas"]) == pytest.approx(1.0)

    def test_wf_sim_stream(self, runner):
        res = runner.invoke(main, [
            "wf-sim", "--N", "100", "--theta", "0.5,1.0", "--gens", "50",
            "--sample-size", "4", "--reps", "3", "--thin", "10", "--seed", "3",
        ])
        assert res.exit_code == 0
        parts = [json.loads(l) for l in res.stdout.strip().splitlines()]
        assert len(parts) == 3
        assert all(sum(sum(rows) for rows in p) == 4 for p in parts)

    def test_wf_sim_draws_from_the_stationary_generator(self, runner):
        res = runner.invoke(main, [
            "wf-sim", "--N", "40", "--theta", "1/2,3/2", "--gens", "120",
            "--sample-size", "5", "--reps", "6", "--thin", "7", "--seed", "11",
        ])
        assert res.exit_code == 0
        got = [json.loads(l) for l in res.stdout.strip().splitlines()]
        # with no snapshot asked for, the start is 2N itself
        samples = stationary_samples(40, (0.5, 1.5), 5, 6, 11, burn_gens=120, thin_gens=7)
        assert got == [multipartition_to_lists(p) for p in samples]

    def test_wf_sim_samples_change_with_a_snapshot(self, runner, tmp_path):
        # --dump-state traces the 2N genes too, so one seed draws other samples
        args = ["wf-sim", "--N", "40", "--theta", "1/2,3/2", "--gens", "120",
                "--sample-size", "5", "--reps", "6", "--thin", "7", "--seed", "11"]
        plain = runner.invoke(main, args)
        kept = runner.invoke(main, [*args, "--dump-state", str(tmp_path / "pop.json")])
        assert plain.exit_code == kept.exit_code == 0
        samples = stationary_samples(Population.founding(40, 2), (0.5, 1.5), 5, 6, 11, 120, 7)
        assert [json.loads(l) for l in kept.stdout.splitlines()] == [
            multipartition_to_lists(p) for p in samples]
        assert kept.stdout != plain.stdout

    def test_wf_sim_at_2n_1e9_builds_no_population(self, runner, monkeypatch):
        def no_population(*args, **kwargs):
            raise AssertionError("Population.founding was called")

        monkeypatch.setattr(Population, "founding", no_population)
        res = runner.invoke(main, ["wf-sim", "--N", "1000000000", "--theta", "1,2", "--gens", "1",
                                   "--sample-size", "4", "--reps", "10"])
        assert res.exit_code == 0, res.output
        parts = [json.loads(line) for line in res.stdout.strip().splitlines()]
        assert len(parts) == 10 and all(sum(map(sum, p)) == 4 for p in parts)

    @pytest.mark.parametrize("two_n,theta,masses", [
        (50, "1.0", (1.0,)), (200, "0.5,1.0", (0.5, 1.0))])
    def test_wf_dump_state(self, runner, tmp_path, monkeypatch, two_n, theta, masses):
        def streamed(*args, **kwargs):
            raise AssertionError("json.dump streams through the pure-Python encoder")

        monkeypatch.setattr(json, "dump", streamed)
        path = tmp_path / "pop.json"
        res = runner.invoke(main, [
            "wf-sim", "--N", str(two_n), "--theta", theta, "--gens", "5",
            "--sample-size", "2", "--dump-state", str(path),
        ])
        assert res.exit_code == 0, res.output
        snap = json.loads(path.read_text())
        assert len(snap["ids"]) == two_n
        # the library's snapshot of the same run, byte for byte
        pop = Population.founding(two_n, len(masses))
        list(stationary_samples(pop, masses, 2, 1, 0, 5, None))
        assert path.read_text() == json.dumps(pop.to_json_dict())

    def test_wf_dump_state_replaced_only_when_the_run_ends(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "pop.json"
        path.write_text("old snapshot")
        args = ["wf-sim", "--N", "50", "--theta", "1.0", "--gens", "5",
                "--sample-size", "2", "--dump-state", str(path)]

        def interrupted(*a):
            yield next(stationary_samples(*a))
            raise KeyboardInterrupt

        monkeypatch.setattr(wf_sim, "stationary_samples", interrupted)
        assert runner.invoke(main, args).exit_code == 1
        assert path.read_text() == "old snapshot"
        monkeypatch.undo()
        assert runner.invoke(main, args).exit_code == 0
        assert json.loads(path.read_text())["ids"]  # replaced, not appended to


class TestTables:
    def test_stats_k_csv(self, runner):
        res = runner.invoke(main, ["stats-k", "--n", "50", "--theta", "1,2"])
        lines = res.output.strip().splitlines()
        assert lines[0] == "n,l,E,Var"
        assert len(lines) == 3

    def test_stats_k_mc_columns(self, runner):
        res = runner.invoke(main, ["stats-k", "--n", "30", "--theta", "1,2",
                                   "--mc-reps", "2000"])
        header = res.output.strip().splitlines()[0]
        assert "mc_mean" in header and "mc_var" in header

    def test_stats_k_refuses_one_mc_rep(self, runner):
        # a sample variance needs two replicates; one gave "mc_var": NaN
        res = runner.invoke(main, ["stats-k", "--n", "5", "--theta", "1.0,2.0",
                                   "--mc-reps", "1", "--format", "json"])
        assert res.exit_code == 1
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "--mc-reps" in errors[0]
        assert res.stdout == ""

    def test_stats_k_float_mode_at_a_million(self, runner):
        from scipy.special import digamma, polygamma

        res = runner.invoke(main, ["stats-k", "--n", "1000000", "--theta", "1.0,2.0",
                                   "--format", "json"])
        assert res.exit_code == 0
        rows = [json.loads(line) for line in res.stdout.splitlines()]
        assert [row["l"] for row in rows] == [1, 2]
        w, n = 3.0, 10**6
        h1 = digamma(w + n) - digamma(w)
        h2 = polygamma(1, w) - polygamma(1, w + n)
        for row, th in zip(rows, (1.0, 2.0)):
            assert row["E"] == pytest.approx(th * h1, rel=1e-12)
            assert row["Var"] == pytest.approx(th * h1 - th * th * h2, rel=1e-12)

    def test_stats_k_exact_mode_refuses_a_million(self, runner):
        res = runner.invoke(main, ["stats-k", "--n", "1000000", "--theta", "1/3,2"])
        assert res.exit_code == 1
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "float route" in errors[0]
        assert res.stdout == ""

    def test_stats_k_exact_mode_at_twenty_thousand(self, runner):
        res = runner.invoke(main, ["stats-k", "--n", "20000", "--theta", "1/3,2",
                                   "--format", "json"])
        assert res.exit_code == 0
        rows = [json.loads(line) for line in res.stdout.splitlines()]
        assert len(rows) == 2 and all(row["Var"] > 0 for row in rows)

    def test_poisson_tv_row(self, runner):
        res = runner.invoke(main, ["poisson-tv", "--n", "6", "--m", "2",
                                   "--theta", "1,1"])
        lines = res.output.strip().splitlines()
        assert lines[0] == "n,m,tv"
        n, m, tv = lines[1].split(",")
        assert (int(n), int(m)) == (6, 2) and 0 < float(tv) < 1


class TestVerify:
    def test_passes_small_scale(self, runner):
        res = runner.invoke(main, ["verify", "--n", "5", "--k", "2",
                                   "--theta", "1,2"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert all(l.startswith("PASS") for l in lines)
        assert len(lines) == 8

    def test_rejects_float_theta(self, runner):
        res = runner.invoke(main, ["verify", "--n", "4", "--k", "1",
                                   "--theta", "1.5"])
        assert res.exit_code == 1
        errors = [l for l in res.output.splitlines() if l.startswith("Error:")]
        assert errors == ["Error: normalization check needs rational theta"]

    def test_rejects_infeasible_scale(self, runner):
        res = runner.invoke(main, ["verify", "--n", "40", "--k", "3",
                                   "--theta", "1,2,3"])
        assert res.exit_code != 0
        assert "states" in res.output

    @pytest.mark.parametrize("k,n_blocks", [(2, 7), (3, 6), (6, 4)])
    def test_set_partition_sweep_is_capped(self, runner, k, n_blocks):
        start = time.perf_counter()
        res = runner.invoke(main, ["verify", "--n", "7", "--k", str(k), "--theta",
                                   ",".join(str(t) for t in range(1, k + 1))])
        elapsed = time.perf_counter() - start
        assert res.exit_code == 0
        assert f"PASS labelled set-partition law sums to 1 at n={n_blocks}" in res.output.splitlines()
        assert elapsed < 30  # the uncapped sweep at k = 6 ran for more than 100 s

    # one wrong numerator per integer-sum route, and the verify lines it must fail
    _ESF_LINES = ["normalization n=4 k=2", "factorization identity",
                  "sub-sampling consistency n=2..4", "union reduction to single-class Ewens",
                  "conditional Poisson representation"]

    @pytest.mark.parametrize("module,name,hit,failing", [
        (measure, "_esf_numerator",
         lambda args: [c.rows for c in args[0]] == [(2, 1), (1,)], _ESF_LINES),
        (measure, "_set_partition_numerator",
         lambda args: args[0].blocks[0][0] == 2 and len(args[0].blocks) == 1,
         ["labelled set-partition law sums to 1 at n=4"]),
        (allele_stats, "_joint_k_numerator",
         lambda args: args[1] == (1, 1), ["joint allele-count law sums to 1"]),
        (measure, "_single_class_numerator",
         lambda args: args[0].rows == (2, 1), ["factorization identity"]),
    ], ids=["refined", "set-partition", "joint-k", "factorized"])
    def test_wrong_numerator_fails(self, runner, monkeypatch, module, name, hit, failing):
        original = getattr(module, name)

        def wrong(*args):
            return original(*args) + hit(args)

        monkeypatch.setattr(module, name, wrong)
        res = runner.invoke(main, ["verify", "--n", "4", "--k", "2", "--theta", "1,2/3"])
        assert res.exit_code == 1
        lines = res.stdout.splitlines()
        assert len(lines) == 8
        assert [l.split(" (")[0][5:] for l in lines if l.startswith("FAIL")] == failing


class TestThetaParsing:
    def test_negative_mass_rejected(self, runner):
        res = runner.invoke(main, ["pmf", "--theta", "-1,2", "--partition", "[[1],[]]"])
        assert res.exit_code != 0
        assert "positive" in res.output or "positive" in res.stderr

    def test_bad_joint_counts(self, runner):
        res = runner.invoke(main, ["pmf", "--theta", "1,2", "--joint-k", "x,y",
                                   "--n", "3"])
        assert res.exit_code != 0
        assert "joint-k" in res.output or "joint-k" in res.stderr

    def test_joint_law_error_is_not_blamed_on_counts(self, runner):
        res = runner.invoke(main, ["pmf", "--theta", "0.5,1.0", "--joint-k", "1,1",
                                   "--n", "3"])
        assert res.exit_code == 1
        errors = [line for line in res.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1
        assert "rational" in errors[0] and "counts" not in errors[0]


class TestOneMassRule:
    """Masses enter as the library's checked type, so every bad mass gives
    the library's one message and exit 1, whether or not a draw is made."""

    @pytest.mark.parametrize("args", [
        ["pmf", "--partition", "[[1],[]]"],
        ["sample-urn", "--n", "3", "--reps", "0"],
        ["sample-pd", "--reps", "0"],
        ["stats-k", "--n", "3"],
        ["wf-sim", "--N", "10", "--gens", "5", "--sample-size", "2", "--reps", "0"],
    ], ids=["pmf", "sample-urn", "sample-pd", "stats-k", "wf-sim"])
    @pytest.mark.parametrize("theta,shown", [("0,1", "(0, 1)"), ("1e999,1", "(inf, 1)"),
                                             ("-1/2,1", "(-1/2, 1)")],
                             ids=["zero", "overflow", "negative"])
    def test_bad_mass(self, runner, args, theta, shown):
        res = runner.invoke(main, [*args, "--theta", theta])
        assert res.exit_code == 1
        errors = [l for l in res.stderr.splitlines() if l.startswith("Error:")]
        assert errors == [f"Error: mutation masses must be positive and finite, got {shown}"]
        assert res.stdout == ""

    @pytest.mark.parametrize("cmd", [
        ["sample-crp", "--n", "3", "--group", "z2", "--reps", "0"],
        ["pmf", "--element", '{"g": [0], "s": [0]}', "--group", "z2"],
    ], ids=["sample-crp", "pmf-element"])
    def test_bad_weight_is_called_a_weight(self, runner, cmd):
        res = runner.invoke(main, [*cmd, "--t", "0,1"])
        assert res.exit_code == 1
        errors = [l for l in res.stderr.splitlines() if l.startswith("Error:")]
        assert errors == ["Error: all weights must be positive and finite, got (0, 1)"]


class TestLargeInputs:
    """Counting tables are built without recursion, so large sizes finish
    or are refused with one error line, never a traceback."""

    def test_enumerate_count(self, runner):
        res = runner.invoke(main, ["enumerate", "--n", "600", "--k", "2", "--count"])
        assert res.exit_code == 0
        assert res.stdout == "13995220929452515665800328918498948\n"

    def test_joint_k(self, runner):
        res = runner.invoke(main, ["pmf", "--theta", "1,2", "--joint-k", "1,1", "--n", "600"])
        assert res.exit_code == 0
        rec = json.loads(res.stdout)
        assert rec["counts"] == [1, 1] and rec["rational"].count("/") == 1

    def test_enumerate_count_at_many_classes(self, runner):
        # C(1001, 2) size compositions of 2 into 1000 parts, counted without recursion
        res = runner.invoke(main, ["enumerate", "--n", "2", "--k", "1000", "--count"])
        assert res.exit_code == 0 and res.stdout == "501500\n"

    def test_enumerate_count_past_the_digit_limit(self, runner):
        # the counting guard accepts n = 653 at k = 10**9, whose count has
        # more than the 4,300 digits that Python converts by default
        limit = sys.get_int_max_str_digits()
        res = runner.invoke(main, ["enumerate", "--n", "653", "--k", str(10**9), "--count"])
        assert res.exit_code == 0, res.output
        assert sys.get_int_max_str_digits() == limit
        got = res.stdout.strip()
        assert len(got) > 4_300 and got.isdigit()
        assert int(got[-30:]) == count_multipartitions(653, 10**9) % 10**30

    def test_verify_refuses_before_working(self, runner):
        start = time.perf_counter()
        res = runner.invoke(main, ["verify", "--n", "12", "--k", "12",
                                   "--theta", ",".join(map(str, range(1, 13)))])
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 1
        errors = [l for l in res.stderr.splitlines() if l.startswith("Error:")]
        assert errors == ["Error: n=12, k=12 enumerates 42124380 states, over the cap of"
                          " 200000; choose a smaller n or k"]

    def test_verify_refuses_with_the_state_cap(self, runner):
        res = runner.invoke(main, ["verify", "--n", "600", "--k", "1", "--theta", "1"])
        assert res.exit_code == 1
        errors = [l for l in res.stderr.splitlines() if l.startswith("Error:")]
        assert len(errors) == 1 and "458004788008144308553622 states" in errors[0]
        assert res.stdout == ""


    def test_exact_rational_past_the_digit_limit(self, runner):
        # the law at n = 2,000 and masses 1/3, 2 has about 6,700 digits, past
        # the 4,300 that Python converts by default
        rows = [[1] * 2_000, []]
        limit = sys.get_int_max_str_digits()
        res = runner.invoke(main, ["pmf", "--theta", "1/3,2", "--partition", json.dumps(rows)])
        assert res.exit_code == 0, res.output
        assert sys.get_int_max_str_digits() == limit
        value = measure.refined_esf_pmf(multipartition_from_lists(rows), (Fraction(1, 3), Fraction(2)))
        sys.set_int_max_str_digits(0)
        try:
            want = f"{value.numerator}/{value.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)
        rec = json.loads(res.stdout)
        assert len(want) > 6_000 and rec["rational"] == want

    def test_exact_law_refused_past_the_work_cap(self, runner):
        start = time.perf_counter()
        res = runner.invoke(main, ["pmf", "--theta", "1,2", "--partition", "[[100000],[]]"])
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 1 and res.stdout == ""
        errors = [l for l in res.stderr.splitlines() if l.startswith("Error:")]
        assert len(errors) == 1 and "an exact law at n=100000 is too large" in errors[0]

    @pytest.mark.parametrize("args", [
        ["wf-sim", "--N", str(10**20), "--theta", "1,2", "--gens", "1", "--sample-size", "4"],
        ["wf-sim", "--N", str(10**400), "--theta", "1,2", "--gens", "1", "--sample-size", "4"],
        ["stats-k", "--n", str(10**400), "--theta", "1.0,2.0"],
        ["pmf", "--theta", "1,2", "--joint-k", "1,1", "--n", str(10**400)],
        ["enumerate", "--n", str(10**400), "--k", "2", "--count"],
    ], ids=["wf-sim-2n-1e20", "wf-sim-2n-1e400", "stats-k", "joint-k", "enumerate"])
    def test_huge_size_is_one_error_line(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        errors = [l for l in res.stderr.splitlines() if l.startswith("Error:")]
        assert len(errors) == 1 and "Traceback" not in res.output, res.output

    def test_wf_sim_at_the_largest_2n(self, runner):
        res = runner.invoke(main, ["wf-sim", "--N", str(2**63 - 2), "--theta", "1,2",
                                   "--gens", "1", "--sample-size", "4"])
        assert res.exit_code == 0, res.output
        assert len(res.stdout.splitlines()) == 1

    @pytest.mark.parametrize("theta,means", [
        ("1e308", [5.0]),  # 16 theta_l overflows the head bound
        ("1e300,1e-300", [5.0, 0.0]),  # theta_2 / (w + j) underflows to 0
    ])
    def test_stats_k_monte_carlo_at_extreme_masses(self, runner, theta, means):
        res = runner.invoke(main, ["stats-k", "--n", "5", "--theta", theta, "--mc-reps", "10",
                                   "--format", "json"])
        assert res.exit_code == 0, res.output
        assert [json.loads(line)["mc_mean"] for line in res.stdout.splitlines()] == means


class TestFloatLogProb:
    def test_underflowed_partition_keeps_its_log(self, runner):
        # 300 singletons of class 1: P = 300! / (3)_300, about e^-1425.6
        part = json.dumps([[1] * 300, []])
        exact = runner.invoke(main, ["pmf", "--theta", "1,2", "--partition", part])
        floats = runner.invoke(main, ["pmf", "--theta", "1.0,2.0", "--partition", part])
        want = json.loads(exact.stdout)["log_prob"]
        rec = json.loads(floats.stdout)
        assert rec["prob"] == 0.0
        assert rec["log_prob"] == pytest.approx(want, rel=1e-12)
        assert rec["log_prob"] == pytest.approx(-1425.63, abs=0.01)
        assert rec["log_prob"] == measure.refined_esf_log_pmf(
            multipartition_from_lists([[1] * 300, []]), (1.0, 2.0))

    def test_underflowed_element_keeps_its_log(self, runner):
        # 300 fixed points with the identity entry in Z/2: P = 2^-300 / (3/2)_300
        element = json.dumps({"g": [0] * 300, "s": list(range(300))})
        args = ["pmf", "--element", element, "--group", "z2", "--t"]
        exact = runner.invoke(main, args + ["1,2"])
        floats = runner.invoke(main, args + ["1.0,2.0"])
        want = json.loads(exact.stdout)["log_prob"]
        rec = json.loads(floats.stdout)
        assert rec["prob"] == 0.0
        assert rec["log_prob"] == pytest.approx(want, rel=1e-12)
        assert rec["log_prob"] == pytest.approx(-1625.82, abs=0.01)

    def test_float_element_prints_the_library_laws(self, runner):
        x = wreath.WreathElement((1, 0, 1), (1, 2, 0))
        group, t = wreath.cyclic_group(2), (1.0, 2.0)
        want = {"element": x.to_json_dict(), "prob": wreath.pewens_pmf(x, group, t),
                "log_prob": wreath.pewens_log_pmf(x, group, t)}
        res = runner.invoke(main, ["pmf", "--element", json.dumps(x.to_json_dict()),
                                   "--group", "z2", "--t", "1.0,2.0"])
        assert res.exit_code == 0 and res.stdout == json.dumps(want) + "\n"


class TestGroupTableFile:
    def test_json_group_table(self, runner, tmp_path):
        path = tmp_path / "Klein4.json"
        path.write_text(json.dumps([
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [3, 2, 1, 0],
        ]))
        res = runner.invoke(main, ["sample-crp", "--n", "3", "--group", str(path),
                                   "--t", "1,1,2,2", "--reps", "2", "--seed", "5"])
        assert res.exit_code == 0
        recs = [json.loads(l) for l in res.stdout.strip().splitlines()]
        assert all(max(r["g"]) <= 3 for r in recs)

    @pytest.mark.parametrize("table", ["[[0,1.0],[1,0]]", "[[0,true],[true,0]]",
                                       '[[0,"1"],[1,0]]'])
    def test_non_int_entries_rejected(self, runner, tmp_path, table):
        path = tmp_path / "coerced.json"
        path.write_text(table)
        res = runner.invoke(main, ["sample-crp", "--n", "2", "--group", str(path),
                                   "--t", "1,2"])
        assert res.exit_code == 2
        assert "integers" in res.output

    def test_bad_table_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[0,1],[1,1]]")
        res = runner.invoke(main, ["sample-crp", "--n", "2", "--group", str(path),
                                   "--t", "1,2"])
        assert res.exit_code != 0


class TestErrorBoundary:
    @pytest.mark.parametrize("args", [
        ["wf-sim", "--N", "7", "--theta", "1,2", "--gens", "5", "--sample-size", "2"],
        ["wf-sim", "--N", "10", "--theta", "1,2", "--gens", "-5", "--sample-size", "2",
         "--thin", "-3"],
        ["wf-sim", "--N", "10", "--theta", "1,2", "--gens", "5", "--sample-size", "2",
         "--thin", "-3"],
        ["wf-sim", "--N", "10", "--theta", "1,2", "--gens", "5", "--sample-size", "0"],
        ["wf-sim", "--N", "10", "--theta", "1,2", "--gens", "1", "--sample-size", "2",
         "--seed", "-1"],
        ["pmf", "--theta", "1,2", "--joint-k", "1,1", "--n", "100000"],
        ["enumerate", "--n", "100000", "--k", "2", "--count"],
        ["sample-urn", "--n", "0", "--theta", "1,2"],
        ["sample-crp", "--n", "0", "--group", "z2", "--t", "1,2"],
        ["sample-crp", "--n", "3", "--group", "z2", "--t", "1e400,1"],
        ["stats-k", "--n", "0", "--theta", "1,2"],
        ["poisson-tv", "--n", "2", "--m", "3", "--theta", "1,1"],
        ["sample-pd", "--theta", "1,2", "--eps", "0"],
        ["enumerate", "--n", "-1", "--k", "2"],
        ["enumerate", "--n", "-1", "--k", "2", "--count"],
        ["sample-urn", "--n", "3", "--theta", "1,2", "--reps", "-1"],
        ["pmf", "--theta", "1e400,1", "--partition", "[[1],[]]"],
        ["poisson-tv", "--n", "5", "--m", "0", "--theta", "1,1"],
        ["pmf", "--theta", "1,2", "--joint-k", "0,0", "--n", "-1"],
        ["pmf", "--element", '{"g":[5],"s":[0]}', "--group", "z2",
         "--t", "1,2"],
        ["pmf", "--element", '{"g":[-1],"s":[0]}', "--group", "z2",
         "--t", "1,2"],
        ["pmf", "--theta", "1,2", "--partition", "[[1.5],[]]"],
        ["pmf", "--element", '{"g":[1.5],"s":[0.9]}', "--group", "z2",
         "--t", "1,2"],
        ["pmf", "--element", '{"g":[true],"s":["0"]}', "--group", "z2",
         "--t", "1,2"],
    ])
    def test_bad_input_is_one_error_line(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code != 0
        assert isinstance(res.exception, SystemExit)
        assert any(line.startswith("Error:") for line in res.output.splitlines())
        assert "Traceback" not in res.output
        assert res.stdout == ""

    @pytest.mark.parametrize("args,seed", [
        (["sample-urn", "--n", "3", "--theta", "1,2"], "-1"),
        (["sample-crp", "--n", "3", "--group", "z2", "--t", "1,2"], "-1"),
        (["sample-pd", "--theta", "1,2"], "-1"),
        (["stats-k", "--n", "5", "--theta", "1,2", "--mc-reps", "3"], "-1"),
        (["wf-sim", "--N", "10", "--theta", "1,2", "--gens", "1", "--sample-size", "2"], "-1"),
        (["sample-urn", "--n", "3", "--theta", "1,2"], "18446744073709551616"),
        (["wf-sim", "--N", "10", "--theta", "1,2", "--gens", "1", "--sample-size", "2"],
         "18446744073709551616"),
        # checked as --seed is read, so also where nothing is drawn
        (["sample-urn", "--n", "3", "--theta", "1,2", "--reps", "0"], "-1"),
        (["sample-crp", "--n", "3", "--group", "z2", "--t", "1,2", "--reps", "0"],
         "18446744073709551616"),
        (["sample-pd", "--theta", "1,2", "--reps", "0"], "18446744073709551616"),
        (["stats-k", "--n", "5", "--theta", "1,2"], "-1"),
        (["stats-k", "--n", "5", "--theta", "1,2"], "18446744073709551616"),
    ])
    def test_seed_outside_64_bits_is_one_error_line(self, runner, args, seed):
        res = runner.invoke(main, [*args, "--seed", seed])
        assert res.exit_code == 1 and res.stdout == ""
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: seed must be an integer in [0, 2**64), got {seed}"]

    @pytest.mark.parametrize("exc,shown", [
        (MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,)"),
         "Error: Unable to allocate 7.45 GiB for an array with shape (1000000000,)"),
        (MemoryError(), "Error: out of memory"),
    ], ids=["numpy", "bare"])
    def test_failed_allocation_is_one_error_line(self, runner, monkeypatch, exc, shown):
        # the sampler raises as an allocation it cannot make would; nothing
        # of that size is allocated here
        def out_of_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(samplers, "hoppe_urn_sample", out_of_memory)
        res = runner.invoke(main, ["sample-urn", "--n", "1000000000", "--theta", "1.0,2.0"])
        assert res.exit_code == 1 and res.stdout == ""
        assert [line for line in res.output.splitlines() if line.startswith("Error:")] == [shown]
        assert "Traceback" not in res.output

    def test_unopenable_dump_state_is_one_error_line(self, runner, tmp_path):
        path = tmp_path / "missing" / "pop.json"
        res = runner.invoke(main, ["wf-sim", "--N", "10", "--theta", "1,2", "--gens", "1",
                                   "--sample-size", "2", "--reps", "3",
                                   "--dump-state", str(path)])
        assert res.exit_code == 1 and res.stdout == ""  # no sample before the error
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and str(path) in errors[0]
        assert "Traceback" not in res.output and not path.exists()
