"""Chaos suite for the engine's resilience layer.

Injects crashes, worker kills, hangs, and corrupted results into the
sweep engine and asserts the invariant the layer exists for: a sweep
that limps through failures produces results (and checkpoint payloads)
bit-identical to an undisturbed run, and quarantine degrades to partial
results instead of aborting.
"""

import hashlib
import json
import threading
import time

import pytest

from repro.experiments.parallel import (
    CellTask,
    checkpoint_path,
    execute_cells,
    read_checkpoint_payload,
    run_cell,
    task_payload,
)
from repro.experiments.resilience import (
    CellFailedError,
    FailedCell,
    FailurePolicy,
    InjectedFault,
    ResultValidationError,
    RetryPolicy,
    failures_manifest_path,
    is_failed,
    load_failures_manifest,
    plan_fault,
    surviving,
)
from repro.experiments.sweep import grid, run_sweep
from repro.obs import Instrumentation, MetricsRegistry, ProgressReporter
from repro.system.initializers import random_blob_system
from repro.util.codec import decode_configuration
from repro.util.serialization import (
    configuration_from_json,
    configuration_to_json,
    load_payload,
    save_payload,
    sweep_stale_temp_files,
)


def make_tasks(count=3, n=16, steps=300, checkpoints=(), kernel="auto"):
    system = random_blob_system(n, seed=5)
    system_json = configuration_to_json(system, sort_nodes=False)
    return [
        CellTask(
            lam=3.0,
            gamma=3.0,
            replica=replica,
            seed=500 + replica,
            steps=steps,
            system_json=system_json,
            checkpoints=tuple(checkpoints),
            label=f"r{replica}",
            kernel=kernel,
        )
        for replica in range(count)
    ]


def final_jsons(results):
    return [configuration_to_json(result.system) for result in results]


def payload_digests(directory, tasks):
    """Checkpoint-content digests, excluding the worker wall-time.

    Configurations are canonicalized through a decode/encode round trip
    so the digest is codec-independent: binary and JSON checkpoints of
    the same trajectory hash identically.
    """

    def canon(item):
        if isinstance(item, (bytes, bytearray)):
            system = decode_configuration(bytes(item))
        else:
            system = configuration_from_json(item)
        return configuration_to_json(system)

    digests = {}
    for task in tasks:
        payload = read_checkpoint_payload(checkpoint_path(directory, task))
        payload.pop("wall_time", None)
        payload["final"] = canon(payload["final"])
        payload["snapshots"] = [canon(s) for s in payload.get("snapshots", [])]
        digests[task.key()] = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
    return digests


def crash_rule(tmp_path, match="*", times=1, mode="crash", **extra):
    ledger = tmp_path / f"ledger-{mode}-{match.replace('*', 'all')}"
    return {"mode": mode, "match": match, "times": times,
            "dir": str(ledger), **extra}


FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.0)


class TestRetryPolicy:
    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=1.0)
        for attempt in (1, 2, 3, 8):
            first = policy.delay(attempt, token="cell-a")
            assert first == policy.delay(attempt, token="cell-a")
            base = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            assert 0.5 * base <= first <= base
        # different cells back off differently (jitter decorrelates)
        assert policy.delay(1, "cell-a") != policy.delay(1, "cell-b")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1).validate()
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0.0).validate()
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5).validate()
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=2.0, backoff_max=1.0).validate()
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)
        RetryPolicy(max_retries=3, task_timeout=1.0).validate()

    def test_failure_policy_validation(self):
        with pytest.raises(ValueError):
            FailurePolicy(mode="explode").validate()
        with pytest.raises(ValueError):
            FailurePolicy(max_pool_restarts=-1).validate()
        assert not FailurePolicy(mode="raise").retries_enabled
        assert FailurePolicy(mode="retry").retries_enabled
        assert FailurePolicy(mode="quarantine").retries_enabled


class TestFaultInjection:
    def test_ledger_claims_exactly_times_slots(self, tmp_path):
        rule = crash_rule(tmp_path, times=2)
        payload = {"fault": rule}
        assert plan_fault(payload, "k1", "") is not None
        assert plan_fault(payload, "k1", "") is not None
        assert plan_fault(payload, "k1", "") is None  # budget spent
        assert plan_fault(payload, "k2", "") is not None  # per-key budget

    def test_match_filters_by_key_and_label(self, tmp_path):
        rule = crash_rule(tmp_path, match="special", times=5)
        payload = {"fault": rule}
        assert plan_fault(payload, "other", "plain") is None
        assert plan_fault(payload, "special-key", "") is not None
        assert plan_fault(payload, "k", "a special label") is not None

    def test_env_spec_reaches_worker(self, tmp_path, monkeypatch):
        from repro.experiments.resilience import FAULT_ENV

        rule = crash_rule(tmp_path)
        monkeypatch.setenv(FAULT_ENV, json.dumps(rule))
        task = make_tasks(1)[0]
        with pytest.raises(InjectedFault):
            run_cell(task_payload(task))
        # budget spent: the next attempt succeeds
        result = run_cell(task_payload(task))
        assert result["iterations"] == task.steps

    def test_unreadable_env_spec_is_ignored(self, monkeypatch):
        from repro.experiments.resilience import FAULT_ENV

        monkeypatch.setenv(FAULT_ENV, "/nonexistent/spec.json")
        task = make_tasks(1)[0]
        assert run_cell(task_payload(task))["iterations"] == task.steps

    def test_exit_demotes_to_crash_in_main_process(self, tmp_path):
        # os._exit in the serial backend would kill the test process;
        # the hook degrades it to a raised InjectedFault instead.
        rule = crash_rule(tmp_path, mode="exit")
        task = make_tasks(1)[0]
        payload = task_payload(task)
        payload["fault"] = rule
        with pytest.raises(InjectedFault):
            run_cell(payload)


class TestSerialResilience:
    def test_crash_then_retry_is_bit_identical(self, tmp_path):
        tasks = make_tasks()
        clean = execute_cells(tasks, backend="serial")
        injected = execute_cells(
            tasks,
            backend="serial",
            retry=FAST_RETRY,
            failure=FailurePolicy(mode="retry"),
            fault_spec=crash_rule(tmp_path, times=1),
        )
        assert final_jsons(clean) == final_jsons(injected)
        assert [r.iterations for r in injected] == [t.steps for t in tasks]

    def test_raise_mode_propagates_original_error(self, tmp_path):
        tasks = make_tasks(1)
        with pytest.raises(InjectedFault):
            execute_cells(
                tasks,
                backend="serial",
                fault_spec=crash_rule(tmp_path, times=5),
            )

    def test_retry_mode_raises_cell_failed_after_budget(self, tmp_path):
        tasks = make_tasks(1)
        with pytest.raises(CellFailedError):
            execute_cells(
                tasks,
                backend="serial",
                retry=RetryPolicy(max_retries=1, backoff_base=0.0),
                failure=FailurePolicy(mode="retry"),
                fault_spec=crash_rule(tmp_path, times=5),
            )

    def test_quarantine_records_manifest_and_resume_recomputes(
        self, tmp_path
    ):
        tasks = make_tasks()
        ckpt = tmp_path / "ckpt"
        partial = execute_cells(
            tasks,
            backend="serial",
            checkpoint_dir=ckpt,
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            failure=FailurePolicy(mode="quarantine"),
            fault_spec=crash_rule(tmp_path, match="r1", times=99),
        )
        assert [is_failed(r) for r in partial] == [False, True, False]
        assert isinstance(partial[1], FailedCell)
        assert partial[1].kind == "exception"
        assert partial[1].attempts == 2
        assert len(surviving(partial)) == 2

        manifest = load_failures_manifest(ckpt)
        assert len(manifest) == 1
        assert manifest[0]["key"] == tasks[1].key()
        assert manifest[0]["label"] == "r1"
        assert manifest[0]["attempts"] == 2

        # quarantined cells have no checkpoint files on disk
        assert not checkpoint_path(ckpt, tasks[1]).exists()
        assert checkpoint_path(ckpt, tasks[0]).exists()

        # a fault-free --resume recomputes exactly the quarantined cell
        fixed = execute_cells(
            tasks, backend="serial", checkpoint_dir=ckpt, resume=True
        )
        assert not any(is_failed(r) for r in fixed)
        assert fixed[0].from_checkpoint and fixed[2].from_checkpoint
        assert not fixed[1].from_checkpoint
        # fully-successful rerun clears the manifest
        assert load_failures_manifest(ckpt) == []
        assert not failures_manifest_path(ckpt).exists()

        clean = execute_cells(tasks, backend="serial")
        assert final_jsons(clean) == final_jsons(fixed)

    def test_serial_posthoc_timeout_counts_as_failure(self, tmp_path):
        tasks = make_tasks(1, steps=50)
        partial = execute_cells(
            tasks,
            backend="serial",
            retry=RetryPolicy(
                max_retries=0, task_timeout=0.5, backoff_base=0.0
            ),
            failure=FailurePolicy(mode="quarantine"),
            fault_spec=crash_rule(
                tmp_path, mode="hang", times=1, hang_seconds=0.8
            ),
        )
        assert is_failed(partial[0])
        assert partial[0].kind == "timeout"

    def test_corrupt_result_is_validated_and_retried(self, tmp_path):
        tasks = make_tasks()
        ckpt = tmp_path / "ckpt"
        clean = execute_cells(tasks, backend="serial")
        injected = execute_cells(
            tasks,
            backend="serial",
            checkpoint_dir=ckpt,
            retry=FAST_RETRY,
            failure=FailurePolicy(mode="retry"),
            fault_spec=crash_rule(tmp_path, mode="corrupt", match="r2"),
        )
        assert final_jsons(clean) == final_jsons(injected)
        # the corrupt payload never reached the checkpoint directory
        for task in tasks:
            payload = read_checkpoint_payload(checkpoint_path(ckpt, task))
            assert payload["iterations"] == task.steps

    def test_retry_metrics_and_failure_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        obs = Instrumentation(metrics=metrics)
        tasks = make_tasks()
        execute_cells(
            tasks,
            backend="serial",
            obs=obs,
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            failure=FailurePolicy(mode="quarantine"),
            fault_spec=crash_rule(tmp_path, match="r0", times=99),
        )
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["engine.retries"] == 1
        assert snapshot["counters"]["engine.failures"] == 1


class TestProcessResilience:
    def test_crash_and_broken_pool_bit_identical(self, tmp_path):
        """The acceptance scenario: injected worker crashes plus one
        forced BrokenProcessPool; the sweep completes and per-cell
        checkpoint payloads match an uninjected run's exactly."""
        tasks = make_tasks(4, steps=200)
        clean_dir = tmp_path / "clean"
        execute_cells(
            tasks, backend="process", workers=2, checkpoint_dir=clean_dir
        )
        clean = payload_digests(clean_dir, tasks)

        metrics = MetricsRegistry()
        chaos_dir = tmp_path / "chaos"
        execute_cells(
            tasks,
            backend="process",
            workers=2,
            checkpoint_dir=chaos_dir,
            obs=Instrumentation(metrics=metrics),
            retry=FAST_RETRY,
            failure=FailurePolicy(mode="retry", max_pool_restarts=3),
            fault_spec=[
                crash_rule(tmp_path, match="r0", times=1),
                # worker os._exit -> BrokenProcessPool -> pool rebuild
                crash_rule(tmp_path, match="r2", times=1, mode="exit"),
            ],
        )
        assert payload_digests(chaos_dir, tasks) == clean
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["engine.pool_restarts"] >= 1

    def test_hang_hits_timeout_and_retry_completes(self, tmp_path):
        tasks = make_tasks(3, steps=200)
        clean = execute_cells(tasks, backend="serial")
        injected = execute_cells(
            tasks,
            backend="process",
            workers=2,
            retry=RetryPolicy(
                max_retries=2, task_timeout=2.0, backoff_base=0.0
            ),
            failure=FailurePolicy(mode="retry"),
            fault_spec=crash_rule(
                tmp_path, mode="hang", match="r1", hang_seconds=20.0
            ),
        )
        assert final_jsons(clean) == final_jsons(injected)

    def test_quarantine_completes_with_partial_results(self, tmp_path):
        tasks = make_tasks(3, steps=200)
        ckpt = tmp_path / "ckpt"
        partial = execute_cells(
            tasks,
            backend="process",
            workers=2,
            checkpoint_dir=ckpt,
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
            failure=FailurePolicy(mode="quarantine"),
            fault_spec=crash_rule(tmp_path, match="r1", times=99),
        )
        assert [is_failed(r) for r in partial] == [False, True, False]
        assert len(load_failures_manifest(ckpt)) == 1

    def test_pool_restarts_exhausted(self, tmp_path):
        from repro.experiments.resilience import PoolRestartsExhausted

        tasks = make_tasks(2, steps=100)
        with pytest.raises(PoolRestartsExhausted):
            execute_cells(
                tasks,
                backend="process",
                workers=2,
                retry=RetryPolicy(max_retries=5, backoff_base=0.0),
                failure=FailurePolicy(mode="retry", max_pool_restarts=1),
                fault_spec=crash_rule(tmp_path, mode="exit", times=99),
            )


class TestBatchResilience:
    def test_batch_crash_recomputes_group(self, tmp_path):
        tasks = make_tasks(3, steps=200, kernel="batch")
        clean = execute_cells(tasks, backend="serial")
        injected = execute_cells(
            tasks,
            backend="serial",
            retry=FAST_RETRY,
            failure=FailurePolicy(mode="retry"),
            fault_spec=crash_rule(tmp_path, times=1),
        )
        assert final_jsons(clean) == final_jsons(injected)

    def test_batch_truncation_is_validation_error_not_silent(
        self, tmp_path
    ):
        """The historical bug: a worker returning fewer payloads than
        group members was zip-truncated silently.  Now it fails
        validation and the group is recomputed on retry."""
        tasks = make_tasks(3, steps=200, kernel="batch")
        clean = execute_cells(tasks, backend="serial")
        injected = execute_cells(
            tasks,
            backend="serial",
            retry=FAST_RETRY,
            failure=FailurePolicy(mode="retry"),
            fault_spec=crash_rule(tmp_path, mode="truncate", times=1),
        )
        assert final_jsons(clean) == final_jsons(injected)

    def test_batch_truncation_without_retries_raises(self, tmp_path):
        tasks = make_tasks(3, steps=100, kernel="batch")
        with pytest.raises(ResultValidationError):
            execute_cells(
                tasks,
                backend="serial",
                fault_spec=crash_rule(tmp_path, mode="truncate", times=1),
            )

    def test_batch_quarantine_fails_whole_group(self, tmp_path):
        tasks = make_tasks(3, steps=100, kernel="batch")
        partial = execute_cells(
            tasks,
            backend="serial",
            checkpoint_dir=tmp_path / "ckpt",
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
            failure=FailurePolicy(mode="quarantine"),
            fault_spec=crash_rule(tmp_path, times=99),
        )
        assert all(is_failed(r) for r in partial)
        assert len(load_failures_manifest(tmp_path / "ckpt")) == 3

    def test_batch_corrupt_member_recomputed(self, tmp_path):
        tasks = make_tasks(3, steps=200, kernel="batch")
        clean = execute_cells(tasks, backend="serial")
        injected = execute_cells(
            tasks,
            backend="serial",
            retry=FAST_RETRY,
            failure=FailurePolicy(mode="retry"),
            fault_spec=crash_rule(tmp_path, mode="corrupt", times=1),
        )
        assert final_jsons(clean) == final_jsons(injected)


class TestSweepHarnessDegradation:
    def test_quarantined_sweep_reports_partial_points(self, tmp_path):
        points = run_sweep(
            grid([2.0], [2.0, 3.0]),
            metrics={"hetero": lambda s: float(s.hetero_total)},
            n=16,
            iterations=200,
            replicas=2,
            seed=9,
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
            failure=FailurePolicy(mode="quarantine"),
            fault_spec=crash_rule(tmp_path, match="gamma=3.0", times=99),
        )
        healthy, failed = points
        assert healthy.metrics["_replicas"] == 2.0
        assert healthy.system is not None
        assert failed.metrics["_replicas"] == 0.0
        assert failed.system is None
        assert failed.metrics["hetero"] != failed.metrics["hetero"]  # NaN

    def test_figure3_failed_cell_gets_failed_phase(self, tmp_path):
        from repro.experiments.figure3 import run_figure3

        result = run_figure3(
            n=16,
            lambdas=[3.0],
            gammas=[1.0, 4.0],
            iterations=200,
            seed=9,
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
            failure=FailurePolicy(mode="quarantine"),
            fault_spec=crash_rule(tmp_path, match="gamma=4.0", times=99),
        )
        assert result.phases[(3.0, 4.0)] == "failed"
        assert result.phases[(3.0, 1.0)] != "failed"
        assert "??" in result.grid_table()


class TestSavePayload:
    def test_unique_temp_names_do_not_collide(self, tmp_path):
        """Concurrent writers to the same target must never clobber
        each other's half-written temp file; with mkstemp each writer
        gets its own and the last replace wins atomically."""
        target = tmp_path / "cell.json"
        errors = []

        def writer(tag):
            try:
                for _ in range(25):
                    save_payload({"tag": tag}, target)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(tag,)) for tag in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert load_payload(target)["tag"] in range(4)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_sweep_stale_temp_files(self, tmp_path):
        (tmp_path / "cell-abc.json.x1.tmp").write_text("half-written")
        (tmp_path / "cell-def.json.x2.tmp").write_text("half-written")
        (tmp_path / "cell-abc.json").write_text("keep")
        assert sweep_stale_temp_files(tmp_path) == 2
        assert list(tmp_path.glob("*.tmp")) == []
        assert (tmp_path / "cell-abc.json").exists()

    def test_engine_start_sweeps_stale_temps(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        stale = ckpt / "cell-dead.json.x.tmp"
        stale.write_text("truncated by a hard kill")
        execute_cells(make_tasks(1, steps=50), backend="serial",
                      checkpoint_dir=ckpt)
        assert not stale.exists()


class FakeClock:
    def __init__(self, values):
        self.values = list(values)

    def __call__(self):
        if len(self.values) > 1:
            return self.values.pop(0)
        return self.values[0]


class TestProgressReporterFixes:
    def test_restored_cells_excluded_from_ewma(self):
        """A --resume burst of restored cells must not poison the ETA
        for the remaining live cells."""
        import io

        class Restored:
            from_checkpoint = True
            wall_time = 0.0
            iterations = 0

        class Live:
            from_checkpoint = False
            wall_time = 2.0
            iterations = 100

        stream = io.StringIO()
        clock = FakeClock([0.0, 0.001, 0.002, 2.0, 4.0])
        reporter = ProgressReporter(
            stream=stream, smoothing=1.0, clock=clock
        )
        reporter(1, 4, Restored())  # microsecond restores
        reporter(2, 4, Restored())
        assert "eta n/a" in stream.getvalue()
        reporter(3, 4, Live())  # first live: interval 2.0 from start
        reporter(4, 4, Live())
        lines = stream.getvalue().splitlines()
        # EWMA reflects the 2 s live spacing, not the restore burst
        assert "ewma 2.00s" in lines[-1]

    def test_failed_cells_are_tagged(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(
            stream=stream, clock=FakeClock([0.0, 1.0])
        )
        task = make_tasks(1)[0]
        reporter(
            1, 1,
            FailedCell(task=task, error="boom", kind="exception", attempts=2),
        )
        assert "[FAILED]" in stream.getvalue()

    def test_heartbeat_and_progress_lines_never_interleave(self):
        class LineCheckingStream:
            def __init__(self):
                self.buffer = []
                self.partial = ""

            def write(self, text):
                # simulate a slow consumer to widen the race window
                time.sleep(0.001)
                self.partial += text
                while "\n" in self.partial:
                    line, self.partial = self.partial.split("\n", 1)
                    self.buffer.append(line)

            def flush(self):
                pass

        class Live:
            from_checkpoint = False
            wall_time = 0.01
            iterations = 10

        stream = LineCheckingStream()
        reporter = ProgressReporter(stream=stream)
        reporter.start_heartbeat(interval=0.002)
        try:
            for i in range(30):
                reporter(i + 1, 30, Live())
        finally:
            reporter.stop()
        for line in stream.buffer:
            assert line.startswith("[repro] ")
            assert line.count("[repro]") == 1
