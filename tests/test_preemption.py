"""Chaos suite for preemption-safe execution (mid-run durability).

The contract under test: a sweep interrupted *inside* a cell — by a
worker SIGKILL, a parent SIGTERM drain, or a preemption notice — and
then resumed produces results bit-identical to an undisturbed run at
the same snapshot cadence, with recompute bounded by the snapshot
interval.  The suite covers the state codec round trip, chain- and
kernel-level export/restore, warm restores through the engine (serial
and process backends, scalar and batch kernels, fixed and adaptive
budgets), corruption fallback to cold starts, drain manifests, and
worker heartbeat liveness.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.batch_kernel import RNG_CHUNK, BatchKernel
from repro.core.separation_chain import SeparationChain
from repro.experiments import parallel as parallel_mod
from repro.experiments import resilience as resilience_mod
from repro.experiments.parallel import (
    BatchRunner,
    CellTask,
    execute_cells,
)
from repro.experiments.resilience import (
    DrainInterrupt,
    FailurePolicy,
    RetryPolicy,
    clear_drain_manifest,
    drain_manifest_path,
    load_drain_manifest,
    request_drain,
    reset_drain,
    write_drain_manifest,
)
from repro.obs import Instrumentation, MetricsRegistry
from repro.system.initializers import random_blob_system
from repro.util import codec
from repro.util.serialization import (
    configuration_from_json,
    configuration_to_json,
    sweep_stale_temp_files,
)


def fresh_system(n=24, seed=3):
    """An order-preserving copy, as the worker handoff produces."""
    return configuration_from_json(
        configuration_to_json(random_blob_system(n, seed=seed),
                              sort_nodes=False)
    )


def make_tasks(count=1, n=16, steps=4000, checkpoints=(1000, 2000),
               kernel="auto", seed0=7, lam=4.0, gamma=2.0):
    system_json = configuration_to_json(
        random_blob_system(n, seed=3), sort_nodes=False
    )
    return [
        CellTask(
            lam=lam,
            gamma=gamma,
            replica=replica,
            seed=seed0 + replica,
            steps=steps,
            checkpoints=tuple(checkpoints),
            system_json=system_json,
            kernel=kernel,
            label=f"cell-{replica}",
        )
        for replica in range(count)
    ]


def result_signature(result):
    """Everything bit-identity covers: counters, snapshots, dict order."""
    return (
        result.iterations,
        result.accepted_moves,
        result.accepted_swaps,
        list(result.system.colors.items()),
        [list(snapshot.colors.items()) for snapshot in result.snapshots],
    )


RETRY = dict(
    retry=RetryPolicy(max_retries=2, backoff_base=0.0),
    failure=FailurePolicy(mode="retry"),
)


def legacy_stream_layout(state):
    """Rewrite a batch-kernel frame into the older one-block layout.

    Before refills carried the stream tail over, each replica's
    proposal streams were ``(R, RNG_CHUNK)`` columns with no ``fill``
    level (the unconsumed tail was discarded on refill).
    """
    legacy = dict(state)
    columns = dict(state["columns"])
    for name in ("idxg", "d", "q"):
        columns[name] = columns[name][:, :RNG_CHUNK]
    del columns["fill"]
    legacy["columns"] = columns
    return legacy


def sigkill_fault(after=2, ledger=None):
    rule = {"mode": "sigkill", "match": "*", "times": 1,
            "after_snapshots": after}
    if ledger is not None:
        rule["dir"] = str(ledger)
    return rule


# ---------------------------------------------------------------------------
# State codec frames
# ---------------------------------------------------------------------------


class TestStateCodec:
    def test_round_trip_meta_items_columns(self):
        import numpy as np

        system = random_blob_system(8, seed=3)
        blob = codec.encode_configuration(system)
        frame = codec.encode_state(
            {
                "kind": "cell-state",
                "iterations": 1234,
                "nested": {"a": [1, 2, 3]},
                "items": [blob, configuration_to_json(system)],
                "columns": {"iters": np.arange(5, dtype=np.int64)},
            }
        )
        state = codec.decode_state(frame)
        assert state["kind"] == "cell-state"
        assert state["iterations"] == 1234
        assert state["nested"] == {"a": [1, 2, 3]}
        assert state["items"][0] == blob
        assert state["items"][1] == configuration_to_json(system)
        assert list(state["columns"]["iters"]) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("mutation", ["truncate", "flip", "garbage"])
    def test_corruption_raises_value_error(self, mutation):
        frame = bytearray(
            codec.encode_state(
                {
                    "kind": "t",
                    "items": [
                        codec.encode_configuration(
                            random_blob_system(8, seed=3)
                        )
                    ],
                }
            )
        )
        if mutation == "truncate":
            frame = frame[: len(frame) // 2]
        elif mutation == "flip":
            frame[len(frame) // 2] ^= 0xFF
        else:
            frame = bytearray(b"not a state frame at all")
        with pytest.raises(ValueError):
            codec.decode_state(bytes(frame))


# ---------------------------------------------------------------------------
# Chain-level export/restore
# ---------------------------------------------------------------------------


class TestChainStateRoundTrip:
    @pytest.mark.parametrize("backend", ["auto", "grid", "dict"])
    def test_restore_replays_bit_identical(self, backend):
        captured = {}
        reference = SeparationChain(
            fresh_system(), lam=4.0, gamma=2.0, swaps=True, seed=7,
            backend=backend,
        )

        def hook(chain):
            if chain.iterations == 2000:
                # JSON round trip, as the RBS1 frame header does.
                captured["state"] = json.loads(
                    json.dumps(chain.export_state())
                )
                captured["config"] = configuration_to_json(
                    chain.system, sort_nodes=False
                )

        reference.set_state_hook(hook, 500)
        reference.run(1000)
        reference.run(1000)
        reference.run(2000)
        assert "state" in captured

        restored = SeparationChain(
            configuration_from_json(captured["config"]),
            lam=4.0, gamma=2.0, swaps=True, seed=7, backend=backend,
        )
        restored.restore_state(captured["state"])
        assert restored.iterations == 2000
        restored.run(2000)
        assert restored.iterations == reference.iterations
        assert restored.accepted_moves == reference.accepted_moves
        assert restored.accepted_swaps == reference.accepted_swaps
        # Including dict insertion order and the RNG stream.
        assert (list(restored.system.colors.items())
                == list(reference.system.colors.items()))
        assert restored.rng.getstate() == reference.rng.getstate()

    def test_export_preserves_slot_order(self):
        """Slot order != dict order mid-run; the payload must carry it."""
        chain = SeparationChain(
            fresh_system(), lam=4.0, gamma=2.0, swaps=True, seed=7
        )
        chain.run(2000)
        state = chain.export_state()
        positions = [tuple(node) for node in state["positions"]]
        assert set(positions) == set(chain.system.colors)
        # The historical bug: rebuilding slots from dict order selects
        # different particles for the same RNG draws.  Assert the two
        # permutations really do drift apart on a mixed run.
        assert positions == list(chain._positions)

    def test_state_hook_is_trajectory_neutral(self):
        plain = SeparationChain(
            fresh_system(), lam=4.0, gamma=2.0, swaps=True, seed=7
        )
        plain.run(5000)
        hooked = SeparationChain(
            fresh_system(), lam=4.0, gamma=2.0, swaps=True, seed=7
        )
        emissions = []
        hooked.set_state_hook(
            lambda chain: emissions.append(chain.iterations), 500
        )
        for segment in (1200, 1700, 2100):
            hooked.run(segment)
        assert emissions == [500 * k for k in range(1, 11)]
        assert hooked.iterations == plain.iterations
        assert hooked.accepted_moves == plain.accepted_moves
        assert hooked.accepted_swaps == plain.accepted_swaps
        assert (list(hooked.system.colors.items())
                == list(plain.system.colors.items()))
        # Raw RNG state may differ (segmentation moves the draw-ahead
        # prefetch boundaries); the *logical* stream must not — keep
        # running and the trajectories stay locked together.
        hooked.run(3000)
        plain.run(3000)
        assert hooked.accepted_moves == plain.accepted_moves
        assert hooked.accepted_swaps == plain.accepted_swaps
        assert (list(hooked.system.colors.items())
                == list(plain.system.colors.items()))

    def test_restore_rejects_parameter_and_system_mismatch(self):
        chain = SeparationChain(fresh_system(), lam=4.0, gamma=2.0, seed=7)
        chain.run(500)
        state = chain.export_state()
        other = SeparationChain(fresh_system(), lam=2.0, gamma=2.0, seed=7)
        with pytest.raises(ValueError):
            other.restore_state(state)
        stranger = SeparationChain(
            fresh_system(seed=99), lam=4.0, gamma=2.0, seed=7
        )
        with pytest.raises(ValueError):
            stranger.restore_state(state)


# ---------------------------------------------------------------------------
# Batch kernel export/restore
# ---------------------------------------------------------------------------


class TestBatchKernelStateRoundTrip:
    def build(self):
        return BatchKernel(
            fresh_system(n=16, seed=3), lam=4.0, gamma=2.0,
            replicas=3, seed=[11, 12, 13], swaps=True,
        )

    @staticmethod
    def configurations(kernel):
        return [kernel.export_system(r) for r in range(kernel.R)]

    def test_restore_replays_bit_identical(self):
        import numpy as np

        # One snapshot inside the first proposal-stream block, one
        # after a refill (its buffers hold a carried-over tail plus a
        # fresh block); both replays cross further refills.
        reference = self.build()
        reference.run(1000)
        # export_state hands out live array views; the codec frame
        # freezes them — the same handoff the worker snapshot does.
        early = codec.encode_state(reference.export_state())
        reference.run(RNG_CHUNK + 500)
        late = codec.encode_state(reference.export_state())
        reference.run(RNG_CHUNK + 1500)

        for frame, at in ((early, 1000), (late, RNG_CHUNK + 1500)):
            restored = self.build()
            restored.restore_state(codec.decode_state(frame))
            assert list(restored.iters) == [at] * 3
            restored.run(int(reference.iters[0]) - at)
            assert np.array_equal(restored.iters, reference.iters)
            assert np.array_equal(restored.acc_moves, reference.acc_moves)
            assert np.array_equal(restored.acc_swaps, reference.acc_swaps)
            for left, right in zip(
                self.configurations(restored), self.configurations(reference)
            ):
                assert list(left.colors.items()) == list(right.colors.items())

    def test_restore_ignores_window_cap(self):
        """Streams do not depend on the window cap, so neither do frames."""
        reference = self.build()
        reference.run(RNG_CHUNK + 500)
        frame = codec.encode_state(reference.export_state())
        reference.run(2000)
        narrow = BatchKernel(
            fresh_system(n=16, seed=3), lam=4.0, gamma=2.0,
            replicas=3, seed=[11, 12, 13], swaps=True, window=1,
        )
        narrow.restore_state(codec.decode_state(frame))
        narrow.run(2000)
        for left, right in zip(
            self.configurations(narrow), self.configurations(reference)
        ):
            assert list(left.colors.items()) == list(right.colors.items())

    def test_pre_tail_carry_frame_rejected(self):
        """A one-block frame (no fill level) raises; the kernel stays usable."""
        kernel = self.build()
        kernel.run(1000)
        state = codec.decode_state(
            codec.encode_state(legacy_stream_layout(kernel.export_state()))
        )
        fresh = self.build()
        with pytest.raises(ValueError):
            fresh.restore_state(state)
        fresh.run(1000)
        for left, right in zip(
            self.configurations(fresh), self.configurations(kernel)
        ):
            assert list(left.colors.items()) == list(right.colors.items())

    def test_vector_run_matches_scalar_run(self):
        import numpy as np

        scalar = self.build()
        scalar.run(800)
        vector = self.build()
        vector.run(np.full(3, 800, dtype=np.int64))
        assert np.array_equal(scalar.iters, vector.iters)
        assert np.array_equal(scalar.acc_moves, vector.acc_moves)
        for left, right in zip(
            self.configurations(scalar), self.configurations(vector)
        ):
            assert list(left.colors.items()) == list(right.colors.items())

    def test_vector_run_advances_replicas_unevenly(self):
        import numpy as np

        kernel = self.build()
        kernel.run(np.array([100, 250, 0], dtype=np.int64))
        assert list(kernel.iters) == [100, 250, 0]


# ---------------------------------------------------------------------------
# Engine warm restores
# ---------------------------------------------------------------------------


class TestWarmRestore:
    def test_serial_scalar_bit_identical(self, tmp_path):
        reference = execute_cells(
            make_tasks(), backend="serial",
            checkpoint_dir=tmp_path / "ref", state_every=500,
        )
        restored = execute_cells(
            make_tasks(), backend="serial",
            checkpoint_dir=tmp_path / "int", state_every=500,
            fault_spec=sigkill_fault(), **RETRY,
        )
        assert restored[0].restored_from is not None
        assert result_signature(restored[0]) == result_signature(reference[0])
        # The state/heartbeat files are cleaned up after the commit.
        assert not list((tmp_path / "int").glob("*.state.bin"))
        assert not list((tmp_path / "int").glob("*.hb"))

    def test_serial_scalar_without_checkpoints(self, tmp_path):
        """Monolithic cells snapshot mid-run (the segmented fast path)."""
        reference = execute_cells(
            make_tasks(checkpoints=()), backend="serial",
            checkpoint_dir=tmp_path / "ref", state_every=500,
        )
        restored = execute_cells(
            make_tasks(checkpoints=()), backend="serial",
            checkpoint_dir=tmp_path / "int", state_every=500,
            fault_spec=sigkill_fault(), **RETRY,
        )
        assert restored[0].restored_from is not None
        # Recompute is bounded by the snapshot interval: the restore
        # point is within one interval of the kill point.
        assert restored[0].restored_from >= 500
        assert result_signature(restored[0]) == result_signature(reference[0])

    def test_batch_group_bit_identical(self, tmp_path):
        tasks = make_tasks(count=3, kernel="batch", steps=3000, seed0=40)
        reference = BatchRunner(
            backend="serial", checkpoint_dir=tmp_path / "ref",
            state_every=500,
        ).run(tasks)
        restored = BatchRunner(
            backend="serial", checkpoint_dir=tmp_path / "int",
            state_every=500, fault_spec=sigkill_fault(), **RETRY,
        ).run(tasks)
        assert any(r.restored_from is not None for r in restored)
        for left, right in zip(restored, reference):
            assert result_signature(left) == result_signature(right)

    def test_batch_pre_tail_carry_frame_cold_starts(self, tmp_path):
        """A drained group's frame rewritten to the older layout is ignored."""
        tasks = make_tasks(count=3, kernel="batch", steps=3000, seed0=140)
        reference = BatchRunner(
            backend="serial", checkpoint_dir=tmp_path / "ref",
            state_every=500,
        ).run(tasks)
        directory = tmp_path / "int"
        with pytest.raises(DrainInterrupt):
            BatchRunner(
                backend="serial", checkpoint_dir=directory, state_every=500,
                fault_spec={"mode": "preempt", "match": "*", "times": 1,
                            "after_snapshots": 3},
            ).run(tasks)
        (state_file,) = directory.glob("*.state.bin")
        state = codec.decode_state(state_file.read_bytes())
        state_file.write_bytes(codec.encode_state(legacy_stream_layout(state)))
        with pytest.warns(RuntimeWarning, match="unusable state snapshot"):
            resumed = BatchRunner(
                backend="serial", checkpoint_dir=directory, state_every=500,
                resume=True,
            ).run(tasks)
        assert all(r.restored_from is None for r in resumed)
        for left, right in zip(resumed, reference):
            assert result_signature(left) == result_signature(right)

    def test_process_backend_survives_real_sigkill(self, tmp_path):
        tasks = make_tasks(count=2, checkpoints=(), seed0=60)
        reference = execute_cells(
            tasks, backend="serial",
            checkpoint_dir=tmp_path / "ref", state_every=500,
        )
        restored = execute_cells(
            tasks, backend="process", workers=2,
            checkpoint_dir=tmp_path / "int", state_every=500,
            fault_spec=sigkill_fault(ledger=tmp_path / "ledger"), **RETRY,
        )
        assert any(r.restored_from is not None for r in restored)
        for left, right in zip(restored, reference):
            assert result_signature(left) == result_signature(right)

    def test_corrupt_state_file_falls_back_to_cold_start(self, tmp_path):
        tasks = make_tasks()
        reference = execute_cells(
            tasks, backend="serial",
            checkpoint_dir=tmp_path / "ref", state_every=500,
        )
        directory = tmp_path / "int"
        directory.mkdir()
        state_file = directory / f"cell-{tasks[0].key()}.state.bin"
        state_file.write_bytes(b"garbage, not an RBS1 frame")
        with pytest.warns(RuntimeWarning, match="unusable state snapshot"):
            restored = execute_cells(
                tasks, backend="serial", checkpoint_dir=directory,
                state_every=500,
            )
        # Cold start: correct result, no warm-restore provenance.
        assert restored[0].restored_from is None
        assert result_signature(restored[0]) == result_signature(reference[0])

    def test_warm_restore_counted_and_reported(self, tmp_path):
        metrics = MetricsRegistry()
        obs = Instrumentation(metrics=metrics)
        # seed0 distinct from every other sigkill test: the in-process
        # fault ledger is keyed by (mode, cell key), so reusing a key
        # would find the fault already claimed and never fire.
        execute_cells(
            make_tasks(seed0=120), backend="serial",
            checkpoint_dir=tmp_path, state_every=500,
            fault_spec=sigkill_fault(), obs=obs, **RETRY,
        )
        snapshot = metrics.snapshot()
        assert snapshot["counters"].get("engine.warm_restores", 0) >= 1
        assert snapshot["counters"].get("engine.state_snapshots", 0) >= 1
        rows = snapshot["series"].get("engine.cells", [])
        assert any(row.get("restored_from") is not None for row in rows)

    def test_adaptive_scalar_bit_identical(self, tmp_path):
        from repro.obs import StopCondition

        stop = StopCondition(
            ess_target=5.0, geweke_max=50.0, min_iterations=2000
        )
        tasks = make_tasks(n=32, steps=300_000, checkpoints=(),
                           gamma=4.0)
        reference = execute_cells(
            tasks, backend="serial", checkpoint_dir=tmp_path / "ref",
            state_every=2000, adaptive=stop,
        )
        restored = execute_cells(
            tasks, backend="serial", checkpoint_dir=tmp_path / "int",
            state_every=2000, adaptive=stop,
            fault_spec=sigkill_fault(), **RETRY,
        )
        assert restored[0].restored_from is not None
        assert restored[0].stop_reason == reference[0].stop_reason
        assert restored[0].ess_at_stop == reference[0].ess_at_stop
        assert result_signature(restored[0]) == result_signature(reference[0])


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_preempt_fault_drains_and_resume_completes(self, tmp_path):
        tasks = make_tasks(count=2, checkpoints=(), seed0=80)
        reference = execute_cells(
            tasks, backend="serial",
            checkpoint_dir=tmp_path / "ref", state_every=500,
        )
        directory = tmp_path / "int"
        with pytest.raises(DrainInterrupt) as excinfo:
            execute_cells(
                tasks, backend="serial", checkpoint_dir=directory,
                state_every=500,
                fault_spec={"mode": "preempt", "match": "*", "times": 1,
                            "after_snapshots": 3},
            )
        assert excinfo.value.pending
        manifest = load_drain_manifest(directory)
        assert manifest is not None
        assert manifest["pending"] == excinfo.value.pending
        # The drained cell parked on a durable snapshot.
        assert list(directory.glob("*.state.bin"))

        resumed = execute_cells(
            tasks, backend="serial", checkpoint_dir=directory,
            state_every=500, resume=True,
        )
        assert any(r.restored_from is not None for r in resumed)
        for left, right in zip(resumed, reference):
            assert result_signature(left) == result_signature(right)
        # A clean completion clears the manifest.
        assert load_drain_manifest(directory) is None

    def test_drain_counted_in_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        obs = Instrumentation(metrics=metrics)
        with pytest.raises(DrainInterrupt):
            execute_cells(
                make_tasks(checkpoints=()), backend="serial",
                checkpoint_dir=tmp_path, state_every=500, obs=obs,
                fault_spec={"mode": "preempt", "match": "*", "times": 1,
                            "after_snapshots": 1},
            )
        assert metrics.snapshot()["counters"].get("engine.drains", 0) >= 1

    def test_manifest_write_load_clear(self, tmp_path):
        write_drain_manifest(tmp_path, ["abc", "def"], 3)
        manifest = load_drain_manifest(tmp_path)
        assert manifest["pending"] == ["abc", "def"]
        assert manifest["completed"] == 3
        assert manifest["reason"] == "signal"
        assert drain_manifest_path(tmp_path).exists()
        clear_drain_manifest(tmp_path)
        assert load_drain_manifest(tmp_path) is None
        clear_drain_manifest(tmp_path)  # idempotent

    def test_request_drain_is_process_wide_and_resettable(self):
        reset_drain()
        try:
            assert not resilience_mod.drain_requested()
            request_drain()
            assert resilience_mod.drain_requested()
        finally:
            reset_drain()
        assert not resilience_mod.drain_requested()


# ---------------------------------------------------------------------------
# SIGTERM end-to-end (subprocess: real signal against a live sweep)
# ---------------------------------------------------------------------------


SIGTERM_SCRIPT = """
import sys
from repro.experiments.parallel import CellTask, execute_cells
from repro.system.initializers import random_blob_system
from repro.util.serialization import configuration_to_json

base = configuration_to_json(random_blob_system(48, seed=3),
                             sort_nodes=False)
tasks = [CellTask(lam=4.0, gamma=2.0, replica=r, seed=7 + r,
                  steps=500_000_000, system_json=base, label=f"c{r}")
         for r in range(2)]
print("READY", flush=True)
execute_cells(tasks, backend="serial", checkpoint_dir=sys.argv[1],
              state_every=100_000)
"""


class TestSigterm:
    def test_sigterm_drains_serial_sweep(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(parallel_mod.__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-c", SIGTERM_SCRIPT, str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True,
        )
        try:
            assert process.stdout.readline().strip() == "READY"
            time.sleep(3.0)
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        # DrainInterrupt propagated out of execute_cells; the state
        # snapshot and the manifest are on disk for --resume.
        assert process.returncode != 0
        manifest = load_drain_manifest(tmp_path)
        assert manifest is not None
        assert manifest["pending"]
        assert list(Path(tmp_path).glob("*.state.bin"))


# ---------------------------------------------------------------------------
# Worker liveness
# ---------------------------------------------------------------------------


class TestHeartbeat:
    def test_hang_before_cell_body_is_detected(self, tmp_path, monkeypatch):
        metrics = MetricsRegistry()
        obs = Instrumentation(metrics=metrics)
        original = resilience_mod.ResilientExecutor.__init__

        def tightened(self, *args, **kwargs):
            kwargs["heartbeat_grace"] = 2.0
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            resilience_mod.ResilientExecutor, "__init__", tightened
        )
        results = execute_cells(
            make_tasks(count=1, steps=2000, checkpoints=()),
            backend="process", workers=1,
            checkpoint_dir=tmp_path, state_every=500,
            fault_spec={"mode": "hang", "match": "*", "times": 1,
                        "hang_seconds": 6.0,
                        "dir": str(tmp_path / "ledger")},
            obs=obs,
            retry=RetryPolicy(max_retries=1, task_timeout=30.0,
                              backoff_base=0.0),
            failure=FailurePolicy(mode="retry"),
        )
        counters = metrics.snapshot()["counters"]
        assert counters.get("worker.heartbeat_miss", 0) >= 1
        assert results[0].iterations == 2000

    def test_heartbeat_files_swept_on_start(self, tmp_path):
        (tmp_path / "cell-deadbeef.hb").write_text("123")
        assert sweep_stale_temp_files(tmp_path) == 1
        assert not list(tmp_path.glob("*.hb"))

    def test_orphaned_state_swept_only_with_checkpoint(self, tmp_path):
        (tmp_path / "cell-aaaa.state.bin").write_bytes(b"x")
        (tmp_path / "cell-bbbb.state.bin").write_bytes(b"x")
        (tmp_path / "cell-bbbb.bin").write_bytes(b"x")
        removed = sweep_stale_temp_files(tmp_path)
        assert removed == 1
        # The live resume candidate survives; the superseded one went.
        assert (tmp_path / "cell-aaaa.state.bin").exists()
        assert not (tmp_path / "cell-bbbb.state.bin").exists()
