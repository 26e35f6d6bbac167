"""Tests for the binary columnar codec and the zero-copy sweep engine.

Covers the :mod:`repro.util.codec` frame format (round trips,
corruption, the checkpoint container), the engine's codec plumbing
(memoized task keys, warm-worker system cache, lazy snapshot decode,
cross-codec resume), and the cost-model scheduler (prediction, online
refinement, chunk planning).
"""

import random

import numpy as np
import pytest

from repro.experiments.costmodel import DEFAULT_RATE, CostModel
from repro.experiments.parallel import (
    CellTask,
    LazySnapshots,
    _plan_chunks,
    checkpoint_path,
    execute_cells,
    read_checkpoint_payload,
    run_cell,
    task_payload,
)
from repro.experiments.resilience import FailurePolicy, RetryPolicy, is_failed
from repro.obs import Instrumentation, MetricsRegistry
from repro.system.configuration import ParticleSystem
from repro.system.initializers import random_blob_system
from repro.util import codec
from repro.util.serialization import configuration_to_json


def make_task(n=16, seed=3, steps=400, checkpoints=(), **overrides):
    system = random_blob_system(n, seed=seed)
    fields = dict(
        lam=4.0,
        gamma=4.0,
        replica=0,
        seed=seed,
        steps=steps,
        system_json=configuration_to_json(system, sort_nodes=False),
        checkpoints=tuple(checkpoints),
    )
    fields.update(overrides)
    return CellTask(**fields)


def random_system(rng, n, num_colors=2):
    """A deliberately awkward configuration: scattered, non-contiguous
    coordinates (holes everywhere), negative offsets, shuffled insertion
    order, and all color classes present."""
    nodes = rng.sample(
        [(x, y) for x in range(-30, 30) for y in range(-30, 30)], n
    )
    colors = [index % num_colors for index in range(n)]
    rng.shuffle(colors)
    return ParticleSystem(
        dict(zip(nodes, colors)), num_colors=num_colors
    )


class TestConfigurationCodec:
    def test_round_trip_random_configurations(self):
        rng = random.Random(7)
        for trial in range(10):
            n = rng.randrange(2, 80)
            system = random_system(rng, n)
            decoded = codec.decode_configuration(
                codec.encode_configuration(system)
            )
            # Same nodes, same colors, and the same *insertion order* —
            # dict order is the chain's particle indexing.
            assert list(decoded.colors.items()) == list(
                system.colors.items()
            )
            assert decoded.num_colors == system.num_colors
            assert decoded.edge_total == system.edge_total
            assert decoded.hetero_total == system.hetero_total

    def test_counters_skip_recount_but_match_reference(self):
        system = random_blob_system(40, seed=9)
        decoded = codec.decode_configuration(
            codec.encode_configuration(system)
        )
        reference = ParticleSystem(
            dict(decoded.colors), num_colors=decoded.num_colors
        )
        assert decoded.edge_total == reference.edge_total
        assert decoded.hetero_total == reference.hetero_total

    def test_blob_is_smaller_than_json(self):
        system = random_blob_system(200, seed=1)
        blob = codec.encode_configuration(system)
        text = configuration_to_json(system, sort_nodes=False)
        assert len(blob) < len(text.encode())

    def test_encode_columns_matches_dict_encoder(self):
        system = random_blob_system(30, seed=4)
        nodes = list(system.colors)
        xy = np.array(nodes, dtype=np.int64)
        blob = codec.encode_columns(
            xy[:, 0],
            xy[:, 1],
            np.array(list(system.colors.values())),
            system.num_colors,
            system.edge_total,
            system.hetero_total,
        )
        decoded = codec.decode_configuration(blob)
        assert list(decoded.colors.items()) == list(system.colors.items())
        assert decoded.edge_total == system.edge_total

    def test_debug_mode_catches_counter_tampering(self, monkeypatch):
        monkeypatch.setenv(codec.DEBUG_ENV, "1")
        system = random_blob_system(20, seed=2)
        # Honest blob decodes fine under the cross-check.
        codec.decode_configuration(codec.encode_configuration(system))
        nodes = list(system.colors)
        xy = np.array(nodes, dtype=np.int64)
        tampered = codec.encode_columns(
            xy[:, 0],
            xy[:, 1],
            np.array(list(system.colors.values())),
            system.num_colors,
            system.edge_total + 5,  # lie about the counters
            system.hetero_total,
        )
        with pytest.raises(ValueError, match="disagree with recount"):
            codec.decode_configuration(tampered)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda blob: blob[:10],  # truncated mid-header
            lambda blob: blob[:-5],  # truncated body
            lambda blob: b"XXXX" + blob[4:],  # wrong magic
            lambda blob: blob[:-1] + bytes([blob[-1] ^ 0xFF]),  # bit rot
            lambda blob: b"",  # empty file
        ],
    )
    def test_corruption_raises_value_error(self, mutate):
        blob = codec.encode_configuration(random_blob_system(25, seed=6))
        with pytest.raises(ValueError):
            codec.decode_configuration(mutate(blob))
        with pytest.raises(ValueError):
            codec.validate_blob(mutate(blob))

    def test_validate_blob_accepts_good_frames_cheaply(self):
        blob = codec.encode_configuration(random_blob_system(25, seed=6))
        codec.validate_blob(blob)  # no exception, no decode

    def test_is_binary_blob(self):
        blob = codec.encode_configuration(random_blob_system(10, seed=1))
        assert codec.is_binary_blob(blob)
        assert not codec.is_binary_blob("{}")
        assert not codec.is_binary_blob(b"PK\x03\x04")


class TestCheckpointContainer:
    def payload(self):
        system = random_blob_system(18, seed=8)
        return {
            "version": 1,
            "key": "abc123",
            "final": codec.encode_configuration(system),
            "snapshots": [
                codec.encode_configuration(system),
                configuration_to_json(system, sort_nodes=False),  # mixed
            ],
            "iterations": 500,
            "accepted_moves": 41,
            "accepted_swaps": 7,
            "wall_time": 0.25,
        }

    def test_round_trip_preserves_scalars_and_items(self):
        payload = self.payload()
        decoded = codec.decode_checkpoint(codec.encode_checkpoint(payload))
        for key in ("version", "key", "iterations", "accepted_moves",
                    "accepted_swaps", "wall_time"):
            assert decoded[key] == payload[key]
        # Items come back *still encoded* — that is the lazy-decode
        # contract — and mixed bytes/str payloads survive unchanged.
        assert decoded["final"] == payload["final"]
        assert isinstance(decoded["snapshots"][0], bytes)
        assert decoded["snapshots"][1] == payload["snapshots"][1]

    def test_peek_meta_reads_scalars_without_items(self):
        meta = codec.peek_checkpoint_meta(
            codec.encode_checkpoint(self.payload())
        )
        assert meta["iterations"] == 500
        assert "final" not in meta

    def test_corrupt_container_raises_value_error(self):
        blob = codec.encode_checkpoint(self.payload())
        for bad in (blob[:12], blob[:-9], b"RBK2" + blob[4:]):
            with pytest.raises(ValueError):
                codec.decode_checkpoint(bad)

    def test_embedded_blob_corruption_fails_the_load(self):
        payload = self.payload()
        final = bytearray(payload["final"])
        final[-2] ^= 0xFF  # rot inside the nested configuration blob
        payload["final"] = bytes(final)
        with pytest.raises(ValueError):
            codec.decode_checkpoint(codec.encode_checkpoint(payload))


class TestTaskKeyMemoized:
    def test_key_is_computed_once_per_instance(self, monkeypatch):
        task = make_task()
        first = task.key()
        # With hashing forcibly broken, a second call must come from
        # the per-instance cache.
        import repro.experiments.parallel as parallel_module

        def boom(*args, **kwargs):
            raise AssertionError("key() re-hashed a memoized task")

        monkeypatch.setattr(parallel_module.hashlib, "sha256", boom)
        assert task.key() == first

    def test_equal_tasks_share_key_across_instances(self):
        assert make_task().key() == make_task().key()


class TestWarmSystemCache:
    def test_serial_cells_reuse_the_decoded_base_system(self):
        metrics = MetricsRegistry()
        obs = Instrumentation(metrics=metrics)
        # A fresh configuration (unique seed) so the first decode is a
        # guaranteed miss even though the cache is process-global.
        tasks = [
            make_task(n=24, seed=4321, steps=60, replica=r)
            for r in range(3)
        ]
        results = execute_cells(tasks, backend="serial", obs=obs)
        assert len(results) == 3
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["engine.system_cache_misses"] == 1.0
        assert snapshot["counters"]["engine.system_cache_hits"] == 2.0

    def test_process_pool_warms_workers(self):
        tasks = [
            make_task(n=20, seed=8765, steps=60, replica=r)
            for r in range(4)
        ]
        serial = execute_cells(tasks, backend="serial")
        process = execute_cells(tasks, backend="process", workers=2)
        for a, b in zip(serial, process):
            assert a.system.colors == b.system.colors


class TestLazySnapshotDecode:
    def test_binary_resume_defers_snapshot_decode(self, tmp_path, monkeypatch):
        task = make_task(steps=300, checkpoints=(100, 200))
        execute_cells([task], checkpoint_dir=tmp_path)

        calls = []
        real = codec.decode_configuration

        def counting(blob):
            calls.append(1)
            return real(blob)

        monkeypatch.setattr(codec, "decode_configuration", counting)
        (second,) = execute_cells(
            [task], checkpoint_dir=tmp_path, resume=True
        )
        assert second.from_checkpoint
        # Resume decoded only the final configuration, not the stack.
        assert len(calls) == 1
        snapshot = second.snapshots[0]
        assert isinstance(snapshot, ParticleSystem)
        assert len(calls) == 2
        # Cached thereafter.
        assert second.snapshots[0] is snapshot
        assert len(calls) == 2
        assert len(second.snapshots) == 2
        list(second.snapshots)
        assert len(calls) == 3

    def test_json_resume_keeps_eager_validation(self, tmp_path):
        task = make_task(steps=300, checkpoints=(150,))
        execute_cells([task], checkpoint_dir=tmp_path, codec="json")
        (second,) = execute_cells(
            [task], checkpoint_dir=tmp_path, resume=True, codec="json"
        )
        assert second.from_checkpoint
        assert all(
            isinstance(item, ParticleSystem)
            for item in second.snapshots._items
        )

    def test_lazy_snapshots_support_slices(self):
        systems = [random_blob_system(8, seed=s) for s in (1, 2, 3)]
        lazy = LazySnapshots(
            [codec.encode_configuration(s) for s in systems]
        )
        assert [s.colors for s in lazy[1:]] == [
            s.colors for s in systems[1:]
        ]


class TestCodecEquivalence:
    def test_binary_and_json_results_bit_identical(self, tmp_path):
        tasks = [
            make_task(seed=s, steps=250, checkpoints=(100,), replica=s)
            for s in (1, 2)
        ]
        binary = execute_cells(
            tasks, checkpoint_dir=tmp_path / "b", codec="binary"
        )
        jsonic = execute_cells(
            tasks, checkpoint_dir=tmp_path / "j", codec="json"
        )
        for a, b in zip(binary, jsonic):
            assert a.system.colors == b.system.colors
            assert a.accepted_moves == b.accepted_moves
            assert [s.colors for s in a.snapshots] == [
                s.colors for s in b.snapshots
            ]
        assert len(list((tmp_path / "b").glob("cell-*.bin"))) == 2
        assert len(list((tmp_path / "j").glob("cell-*.json"))) == 2

    def test_legacy_json_checkpoints_resume_under_binary_default(
        self, tmp_path
    ):
        tasks = [make_task(seed=s, steps=200) for s in (1, 2)]
        first = execute_cells(tasks, checkpoint_dir=tmp_path, codec="json")
        flags = []
        second = execute_cells(
            tasks,
            checkpoint_dir=tmp_path,
            resume=True,  # codec defaults to binary
            progress=lambda done, total, r: flags.append(r.from_checkpoint),
        )
        assert flags == [True, True]
        for a, b in zip(first, second):
            assert a.system.colors == b.system.colors

    def test_binary_checkpoints_resume_under_json_codec(self, tmp_path):
        task = make_task(steps=200)
        execute_cells([task], checkpoint_dir=tmp_path)  # writes .bin
        (second,) = execute_cells(
            [task], checkpoint_dir=tmp_path, resume=True, codec="json"
        )
        assert second.from_checkpoint

    def test_read_checkpoint_payload_handles_both_formats(self, tmp_path):
        task = make_task(steps=150)
        execute_cells([task], checkpoint_dir=tmp_path / "b")
        execute_cells([task], checkpoint_dir=tmp_path / "j", codec="json")
        for directory, suffix in ((tmp_path / "b", "binary"),
                                  (tmp_path / "j", "json")):
            payload = read_checkpoint_payload(
                checkpoint_path(directory, task, codec=suffix)
            )
            assert payload["iterations"] == task.steps
            assert payload["key"] == task.key()

    def test_invalid_codec_and_schedule_rejected(self):
        task = make_task(steps=50)
        with pytest.raises(ValueError):
            execute_cells([task], codec="msgpack")


class TestCorruptBinaryCheckpoints:
    def test_truncated_checkpoint_recomputes_with_warning(self, tmp_path):
        task = make_task(steps=150)
        (first,) = execute_cells([task], checkpoint_dir=tmp_path)
        path = checkpoint_path(tmp_path, task)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            (second,) = execute_cells(
                [task], checkpoint_dir=tmp_path, resume=True
            )
        assert not second.from_checkpoint
        assert second.system.colors == first.system.colors

    def test_garbage_bytes_checkpoint_recomputes(self, tmp_path):
        task = make_task(steps=150)
        execute_cells([task], checkpoint_dir=tmp_path)
        checkpoint_path(tmp_path, task).write_bytes(b"\x00" * 64)
        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            (result,) = execute_cells(
                [task], checkpoint_dir=tmp_path, resume=True
            )
        assert not result.from_checkpoint

    @pytest.mark.parametrize("backend,workers", [("serial", None),
                                                 ("process", 2)])
    def test_corrupt_binary_result_quarantined(
        self, tmp_path, backend, workers
    ):
        tasks = [
            make_task(seed=s, steps=120, replica=s, label=f"r{s}")
            for s in range(3)
        ]
        results = execute_cells(
            tasks,
            backend=backend,
            workers=workers,
            checkpoint_dir=tmp_path / "ckpt",
            retry=RetryPolicy(max_retries=0, backoff_base=0.0),
            failure=FailurePolicy(mode="quarantine"),
            fault_spec={
                "mode": "corrupt",
                "match": "r1",
                "times": 99,
                "dir": str(tmp_path / f"ledger-{backend}"),
            },
        )
        assert is_failed(results[1])
        assert results[1].kind == "validation"
        assert not is_failed(results[0]) and not is_failed(results[2])
        # The corrupt payload never reached the checkpoint directory.
        assert len(list((tmp_path / "ckpt").glob("cell-*.bin"))) == 2


class TestCostModel:
    def test_units_scale_with_steps_and_particles(self):
        small = make_task(n=10, steps=100)
        assert CostModel().units(small) == pytest.approx(100 * 10)
        assert CostModel().units(make_task(n=10, steps=200)) == (
            2 * CostModel().units(small)
        )

    def test_rate_refines_online(self):
        model = CostModel()
        task = make_task(n=10, steps=100)
        assert model.rate(task) == DEFAULT_RATE
        model.observe(task, seconds=0.01)
        first = model.rate(task)
        assert first == pytest.approx(0.01 / model.units(task))
        model.observe(task, seconds=0.02)
        refined = model.rate(task)
        assert first < refined < 0.02 / model.units(task)
        assert model.observations == 2

    def test_family_rate_isolated_from_other_configs(self):
        model = CostModel()
        a = make_task(n=10, seed=1, steps=100)
        b = make_task(n=40, seed=2, steps=100)
        model.observe(a, seconds=1.0)
        # b has no family observation; it falls back to the global rate.
        assert model.rate(b) == pytest.approx(model.rate(a))
        model.observe(b, seconds=0.001)
        assert model.rate(b) != pytest.approx(model.rate(a))

    def test_observe_publishes_metrics(self):
        metrics = MetricsRegistry()
        model = CostModel(metrics=metrics)
        model.observe(make_task(steps=100), seconds=0.5)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["engine.cost_model.observations"] == 1.0
        assert snapshot["gauges"]["engine.cost_model.us_per_unit"] > 0.0

    def test_prediction_orders_heterogeneous_sweep(self):
        model = CostModel()
        cheap = make_task(n=10, steps=100)
        costly = make_task(n=10, steps=100000)
        assert model.predict_seconds(costly) > model.predict_seconds(cheap)


class TestPlanChunks:
    def tasks(self, steps_list):
        return [
            make_task(seed=i, steps=steps, replica=i)
            for i, steps in enumerate(steps_list)
        ]

    def test_homogeneous_small_sweep_stays_singleton(self):
        task_list = self.tasks([500] * 4)
        groups = _plan_chunks(task_list, range(4), CostModel(), workers=2)
        assert groups == [[0], [1], [2], [3]]

    def test_cheap_tail_is_chunked_longest_first(self):
        task_list = self.tasks([100000] + [10] * 40)
        groups = _plan_chunks(task_list, range(41), CostModel(), workers=2)
        assert groups[0] == [0]  # the expensive cell leads, alone
        assert any(len(group) > 1 for group in groups[1:])
        assert all(len(group) <= 16 for group in groups)
        flat = [index for group in groups for index in group]
        assert sorted(flat) == list(range(41))

    def test_planning_is_deterministic(self):
        task_list = self.tasks([100, 10, 5000, 10, 10])

        def plan():
            return _plan_chunks(task_list, range(5), CostModel(), workers=2)

        assert plan() == plan()


class TestScheduling:
    def test_chunked_process_run_matches_serial(self, tmp_path):
        # One long cell plus a cheap tail: the adaptive planner keeps
        # the long cell alone and packs the tail into chunks.
        tasks = [
            make_task(seed=s, steps=20000 if s == 0 else 40, replica=s, n=12)
            for s in range(12)
        ]
        serial = execute_cells(tasks, backend="serial")
        obs = Instrumentation(metrics=MetricsRegistry())
        chunked = execute_cells(
            tasks,
            backend="process",
            workers=2,
            checkpoint_dir=tmp_path,
            obs=obs,
        )
        gauges = obs.metrics.snapshot()["gauges"]
        assert gauges["engine.cost_model.chunked_units"] > 0
        for a, b in zip(serial, chunked):
            assert a.system.colors == b.system.colors
        # Every cell still checkpoints individually.
        assert len(list(tmp_path.glob("cell-*.bin"))) == 12

    def test_worker_payload_carries_binary_system(self):
        task = make_task(steps=60)
        payload = task_payload(task, codec="binary")
        assert codec.is_binary_blob(payload["system"])
        result = run_cell(payload)
        assert codec.is_binary_blob(result["final"])
        json_payload = task_payload(task, codec="json")
        json_result = run_cell(json_payload)
        decoded = codec.decode_configuration(result["final"])
        from repro.util.serialization import configuration_from_json

        assert decoded.colors == configuration_from_json(
            json_result["final"]
        ).colors
