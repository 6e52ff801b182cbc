"""Benchmark configuration, records, CSV stability, and small live runs."""

import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from egroup.bench import (
    CSV_HEADER,
    SCENARIO_SCALE_IN,
    SCENARIO_SCALE_OUT,
    BenchConfig,
    BenchRecord,
    emit_csv,
    hosts_for,
    mean_by_delta,
    parse_csv,
    print_summary,
    run_scale_in_bench,
    run_scale_out_bench,
)


def record(scenario=SCENARIO_SCALE_OUT, initial=4, delta=2, trial=0,
           total_s=1.5, spawn_s=1.0, other_s=0.5, hosts_used=1):
    return BenchRecord(scenario=scenario, initial=initial, delta=delta,
                       trial=trial, total_s=total_s, spawn_s=spawn_s,
                       other_s=other_s, hosts_used=hosts_used)


class TestBenchConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BenchConfig(initial=0, deltas=(1,))
        with pytest.raises(ValueError):
            BenchConfig(initial=1, deltas=())
        with pytest.raises(ValueError):
            BenchConfig(initial=1, deltas=(1,), trials=0)

    def test_scale_out_delta_must_be_positive(self):
        config = BenchConfig(initial=4, deltas=(1, 0))
        with pytest.raises(ValueError):
            config.validate_for(SCENARIO_SCALE_OUT)

    def test_scale_in_must_leave_a_member(self):
        config = BenchConfig(initial=4, deltas=(4,))
        with pytest.raises(ValueError):
            config.validate_for(SCENARIO_SCALE_IN)
        BenchConfig(initial=4, deltas=(3,)).validate_for(SCENARIO_SCALE_IN)

    def test_worker_command_prefers_child_program(self):
        assert BenchConfig(initial=1, deltas=(1,),
                           child_program="/x/w").worker_command() == ["/x/w"]
        default = BenchConfig(initial=1, deltas=(1,)).worker_command()
        assert default[1:] == ["-S", "-c",
                               "from egroup.worker import main; main()"]


class TestHostsFor:
    def test_rounds_up(self):
        assert hosts_for(1, 32) == 1
        assert hosts_for(32, 32) == 1
        assert hosts_for(33, 32) == 2
        assert hosts_for(128, 32) == 4
        assert hosts_for(0, 32) == 0


class TestBenchRecord:
    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            record(scenario="scale_sideways")

    def test_rejects_inconsistent_breakdown(self):
        with pytest.raises(ValueError):
            record(total_s=2.0, spawn_s=1.0, other_s=0.5)

    def test_slack_tolerates_rounding(self):
        r = record(total_s=1.0000004, spawn_s=0.5, other_s=0.5)
        assert not r.failed

    def test_nan_marks_failure_and_skips_breakdown(self):
        nan = float("nan")
        r = record(total_s=nan, spawn_s=nan, other_s=nan)
        assert r.failed


class TestCsvRoundTrip:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text().strip() == ",".join(CSV_HEADER)
        assert parse_csv(path) == []

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.csv"
        r = record(total_s=0.123456, spawn_s=0.1, other_s=0.023456)
        emit_csv([r], path)
        assert len(path.read_text().strip().splitlines()) == 2
        assert parse_csv(path) == [r]

    def test_many_records_preserve_order_and_values(self, tmp_path):
        rng = random.Random(7)
        records = []
        for trial in range(20):
            spawn = round(rng.uniform(0, 5), 6)
            other = round(rng.uniform(0, 5), 6)
            records.append(record(
                scenario=rng.choice((SCENARIO_SCALE_OUT, SCENARIO_SCALE_IN)),
                delta=rng.randrange(1, 100), trial=trial,
                total_s=round(spawn + other, 6), spawn_s=spawn, other_s=other,
                hosts_used=rng.randrange(1, 5)))
        path = tmp_path / "many.csv"
        emit_csv(records, path)
        assert parse_csv(path) == records

    @given(st.floats(min_value=0.0, max_value=3600.0))
    @settings(max_examples=300, deadline=None)
    def test_six_decimal_format_round_trips(self, value):
        quantized = round(value, 6)
        assert float(f"{quantized:.6f}") == quantized

    def test_failed_trial_round_trips_as_nan(self, tmp_path):
        nan = float("nan")
        path = tmp_path / "failed.csv"
        emit_csv([record(total_s=nan, spawn_s=nan, other_s=nan)], path)
        parsed = parse_csv(path)
        assert len(parsed) == 1
        assert parsed[0].failed

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(CSV_HEADER) + "\nscale_out,1,1,0\n")
        with pytest.raises(ValueError):
            parse_csv(path)


class TestSummaries:
    def test_mean_by_delta_groups_and_averages(self):
        records = [
            record(delta=2, trial=0, total_s=1.0, spawn_s=0.75, other_s=0.25),
            record(delta=2, trial=1, total_s=3.0, spawn_s=2.25, other_s=0.75),
            record(delta=4, trial=0, total_s=5.0, spawn_s=4.0, other_s=1.0),
        ]
        summary = mean_by_delta(records)
        two = summary[(SCENARIO_SCALE_OUT, 4, 2)]
        assert two["trials"] == 2
        assert two["failures"] == 0
        assert two["total_s"] == pytest.approx(2.0)
        assert two["spawn_s"] == pytest.approx(1.5)
        assert summary[(SCENARIO_SCALE_OUT, 4, 4)]["total_s"] == \
            pytest.approx(5.0)

    def test_failures_excluded_from_means(self):
        nan = float("nan")
        records = [
            record(delta=2, trial=0, total_s=1.0, spawn_s=1.0, other_s=0.0),
            record(delta=2, trial=1, total_s=nan, spawn_s=nan, other_s=nan),
        ]
        entry = mean_by_delta(records)[(SCENARIO_SCALE_OUT, 4, 2)]
        assert entry["trials"] == 2
        assert entry["failures"] == 1
        assert entry["total_s"] == pytest.approx(1.0)

    def test_all_failed_delta_reports_nan_mean(self):
        nan = float("nan")
        entry = mean_by_delta([record(total_s=nan, spawn_s=nan,
                                      other_s=nan)])[(SCENARIO_SCALE_OUT, 4, 2)]
        assert math.isnan(entry["total_s"])

    def test_print_summary_lists_each_delta(self):
        out = io.StringIO()
        print_summary([record(delta=2), record(delta=4)], out=out)
        text = out.getvalue()
        assert "scale_out" in text
        assert text.count("\n") == 3


class TestLiveTrials:
    def test_scale_out_produces_sane_records(self, tmp_path):
        config = BenchConfig(initial=1, deltas=(1,), trials=1,
                             slots_per_host=2)
        records = run_scale_out_bench(config)
        assert len(records) == 1
        r = records[0]
        assert not r.failed
        assert r.scenario == SCENARIO_SCALE_OUT
        assert r.total_s >= r.spawn_s > 0.0
        assert r.hosts_used == 1
        path = tmp_path / "live.csv"
        emit_csv(records, path)
        parsed = parse_csv(path)
        assert parsed[0].total_s == round(r.total_s, 6)

    def test_scale_in_produces_sane_records(self):
        config = BenchConfig(initial=2, deltas=(1,), trials=1)
        records = run_scale_in_bench(config)
        assert len(records) == 1
        r = records[0]
        assert not r.failed
        assert r.scenario == SCENARIO_SCALE_IN
        assert r.spawn_s == 0.0
        assert r.total_s == r.other_s >= 0.0
