"""The seeded generators, the paced scheduler and the statistics helpers."""

from loadgen import (
    AnalyticsOps,
    TpcwOps,
    arrival_schedule,
    highest_supported_percentile,
    median_per_second,
    mix_block,
    op_list_hash,
    percentile,
    run_closed,
    run_paced,
    windowed_statistics,
)

SUBJECTS = ["ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN"]


def tpcw_ops(seed, zipf=False, **shares):
    return TpcwOps(seed, 0, customers=40, items=50, subjects=SUBJECTS, zipf=zipf, **shares)


def test_same_seed_same_op_list_different_seed_different():
    first = op_list_hash(tpcw_ops(7).take(500))
    assert first == op_list_hash(tpcw_ops(7).take(500))
    assert first != op_list_hash(tpcw_ops(8).take(500))
    analytics = op_list_hash(AnalyticsOps(7, 0, fact_rows=1000).take(100))
    assert analytics == op_list_hash(AnalyticsOps(7, 0, fact_rows=1000).take(100))
    assert analytics != op_list_hash(AnalyticsOps(8, 0, fact_rows=1000).take(100))


def test_generators_emit_only_valid_tpcw_parameters():
    for zipf in (False, True):
        ops = tpcw_ops(3, zipf=zipf, adhoc_share=0.1, transfer_share=0.3).take(5000)
        assert {op[0] for op in ops} == {
            "getName", "getCustomer", "doSubjectSearch", "doGetRelated", "adhocLookup", "transfer",
        }
        for op in ops:
            if op[0] in ("getName", "adhocLookup"):
                assert 1 <= op[1] <= 40
            elif op[0] == "getCustomer":
                assert op[1].startswith("user") and 1 <= int(op[1][4:]) <= 40
            elif op[0] == "doSubjectSearch":
                assert op[1] in SUBJECTS
            elif op[0] == "doGetRelated":
                assert 1 <= op[1] <= 50
            else:
                _, source, destination, quantity = op
                assert 1 <= source <= 50 and 1 <= destination <= 50
                assert source != destination and 1 <= quantity <= 3


def test_the_mix_is_stratified_every_block_holds_each_type_in_its_share():
    assert len(mix_block(0.0, 0.0)) == 20
    block = mix_block(0.1, 0.0)
    assert len(block) == 200 and block.count("adhocLookup") == 20
    assert block.count("doSubjectSearch") == 45
    ops = tpcw_ops(11, transfer_share=0.5).take(400)  # ten blocks of 40
    for begin in range(0, 400, 40):
        names = [op[0] for op in ops[begin : begin + 40]]
        assert names.count("transfer") == 20 and names.count("doSubjectSearch") == 5
        assert names.count("getName") == 6 and names.count("doGetRelated") == 3


def test_zipf_keys_are_skewed_and_uniform_keys_are_not():
    def share_of_key_one(zipf):
        names = [op[1] for op in tpcw_ops(5, zipf=zipf).take(20000) if op[0] == "getName"]
        return names.count(1) / len(names)

    assert share_of_key_one(True) > 0.15
    assert share_of_key_one(False) < 0.06


def test_analytics_rotation_has_one_update_per_eight_queries():
    names = [op[0] for op in AnalyticsOps(1, 0, fact_rows=1000).take(90)]
    assert names.count("update") == 10
    assert names[8] == "update" and "update" not in names[:8]
    assert set(names[:5]) == set(AnalyticsOps.SHAPES)


class SameOp:
    """A stream that always issues the same operation."""

    def next(self):
        return ("getName", 1)


class FakeTime:
    """A clock that only moves when something sleeps or works."""

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_paced_loop_times_from_due_time_so_a_slow_op_shows_queueing():
    fake = FakeTime()

    def slow_op(op):  # 50 ms of work, at 100 ops/s: five times over capacity
        fake.sleep(0.050)

    due = [index / 100.0 for index in range(50)]
    result = run_paced([slow_op], SameOp(), due, 0.5, clock=fake.clock, sleep=fake.sleep)
    latencies = result.latencies
    assert len(latencies) > 10
    assert abs(latencies[0] - 0.050) < 1e-9
    # Operation i is due at 10*i ms but cannot start before 50*i ms.
    assert abs(latencies[10] - (0.050 * 11 - 0.010 * 10)) < 1e-9
    assert latencies == sorted(latencies) and latencies[-1] > 0.4
    assert result.due == 50 and result.backlogged >= len(latencies) - 1
    # The backlog is cut off after the grace period; the rest count as misses.
    assert len(latencies) < result.due


def test_paced_loop_at_a_sustainable_rate_reports_service_time():
    fake = FakeTime()

    def quick_op(op):
        fake.sleep(0.001)

    due = [index / 100.0 for index in range(50)]
    result = run_paced([quick_op], SameOp(), due, 0.5, clock=fake.clock, sleep=fake.sleep)
    assert len(result.latencies) == 50
    assert all(abs(latency - 0.001) < 1e-9 for latency in result.latencies)
    assert result.late == 0 and result.backlogged == 0


def test_closed_loop_records_service_times_and_oracle_samples():
    fake = FakeTime()

    def op_taking_2ms(op):
        fake.sleep(0.002)
        return "value"

    result = run_closed([op_taking_2ms], [tpcw_ops(1)], 1.0, clock=fake.clock)
    assert result.attempted == len(result.ends) == len(result.durations) == 500
    assert all(abs(duration - 0.002) < 1e-9 for duration in result.durations)
    assert len(result.samples) == 10  # every 50th read is kept for the oracle
    assert not result.failures


def test_a_raising_operation_is_a_failure_not_a_crash():
    def broken(op):
        raise RuntimeError("boom")

    fake = FakeTime()

    def failing(op):
        fake.sleep(0.125)
        return broken(op)

    result = run_closed([failing], [tpcw_ops(1)], 1.0, clock=fake.clock)
    assert result.attempted == len(result.failures) == 8 and not result.ends


def test_windowed_statistics_leave_a_disturbed_window_out():
    # Four one-second windows of 200 samples at 1 ms; the third is stalled.
    latencies, offsets = [], []
    for window in range(4):
        for index in range(200):
            latencies.append(50.0 if window == 2 else 1.0)
            offsets.append(window + index / 200.0)
    mean, (p50, p95), windows = windowed_statistics(latencies, offsets, 4.0, (0.5, 0.95))
    assert windows == 4 and mean == 1.0 and p50 == 1.0 and p95 == 1.0
    # Too few samples for four windows: fewer, larger windows are used.
    _, _, windows = windowed_statistics(latencies[:500], offsets[:500], 4.0, (0.5,))
    assert windows == 2
    assert windowed_statistics([], [], 4.0, (0.5,)) == (0.0, [0.0], 0)


def test_arrival_schedule_is_seeded_and_has_the_requested_rate():
    schedule = arrival_schedule(9, 200.0, 10.0)
    assert schedule == arrival_schedule(9, 200.0, 10.0)
    assert schedule != arrival_schedule(10, 200.0, 10.0)
    assert schedule == sorted(schedule) and schedule[-1] < 10.0
    assert 1800 < len(schedule) < 2200


def test_highest_percentile_with_ten_samples_beyond_it():
    assert highest_supported_percentile(5) == 0.50
    assert highest_supported_percentile(99) == 0.50
    assert highest_supported_percentile(100) == 0.90
    assert highest_supported_percentile(199) == 0.90
    assert highest_supported_percentile(200) == 0.95
    assert highest_supported_percentile(1000) == 0.99
    assert highest_supported_percentile(10000) == 0.999


def test_percentile_is_nearest_rank():
    samples = [float(value) for value in range(1, 101)]
    assert percentile(samples, 0.50) == 50.0
    assert percentile(samples, 0.95) == 95.0
    assert percentile(samples, 0.999) == 100.0
    assert percentile([], 0.5) == 0.0


def test_median_per_second_ignores_a_burst_second():
    ends = [second + 0.5 for second in range(5) for _ in range(100)]
    ends += [2.25] * 900  # one second with ten times the completions
    assert median_per_second(ends, 0.0, 5.0) == 100.0
