"""Tests for the process-pool execution backend (checkpoint/resume)."""

import json
import random
import warnings

import pytest

from repro.analysis.compression_metric import alpha_of
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.parallel import (
    CellResult,
    CellTask,
    checkpoint_path,
    dispatch_cells,
    execute_cells,
    group_by_cell,
    resolve_backend,
    run_cell,
    task_payload,
)
from repro.experiments.scaling import scaling_study
from repro.experiments.sweep import _replica_seed, grid, run_sweep
from repro.system.initializers import random_blob_system
from repro.util.rng import seed_entropy
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


METRICS = {
    "alpha": alpha_of,
    "hetero": lambda s: float(s.hetero_total),
}


class TestCellTask:
    def test_key_is_stable_and_label_free(self):
        task = make_task()
        assert task.key() == make_task().key()
        assert task.key() == make_task(label="renamed").key()

    def test_key_covers_trajectory_fields(self):
        base = make_task()
        assert base.key() != make_task(lam=2.0).key()
        assert base.key() != make_task(gamma=2.0).key()
        assert base.key() != make_task(seed=99).key()
        assert base.key() != make_task(steps=401).key()
        assert base.key() != make_task(swaps=False).key()
        assert base.key() != make_task(checkpoints=(100,)).key()
        assert base.key() != make_task(n=17).key()  # different initial config

    def test_validate_rejects_bad_tasks(self):
        with pytest.raises(ValueError):
            make_task(system_json="").validate()
        with pytest.raises(ValueError):
            make_task(steps=-1).validate()
        with pytest.raises(ValueError):
            make_task(checkpoints=(100, 100)).validate()
        with pytest.raises(ValueError):
            make_task(checkpoints=(200, 100)).validate()
        with pytest.raises(ValueError):
            make_task(steps=50, checkpoints=(100,)).validate()
        make_task(checkpoints=(100, 400)).validate()  # well-formed


class TestRunCell:
    def test_worker_matches_in_process_chain(self):
        from repro.core.separation_chain import SeparationChain

        system = random_blob_system(20, seed=5)
        reference = system.copy()
        chain = SeparationChain(reference, lam=3.0, gamma=2.0, seed=11)
        chain.run(600)

        task = CellTask(
            lam=3.0,
            gamma=2.0,
            replica=0,
            seed=11,
            steps=600,
            system_json=configuration_to_json(system, sort_nodes=False),
        )
        payload = run_cell(task_payload(task))
        assert payload["iterations"] == 600
        assert payload["accepted_moves"] == chain.accepted_moves
        result_colors = json.loads(payload["final"])["nodes"]
        assert len(result_colors) == 20

    def test_snapshots_taken_at_checkpoints(self):
        task = make_task(steps=300, checkpoints=(100, 200, 300))
        payload = run_cell(task_payload(task))
        assert len(payload["snapshots"]) == 3
        assert payload["iterations"] == 300


class TestExecuteCells:
    def test_serial_and_process_backends_identical(self):
        tasks = [
            make_task(seed=seed, steps=500, lam=lam, checkpoints=(250, 500))
            for seed in (1, 2)
            for lam in (1.0, 4.0)
        ]
        serial = execute_cells(tasks, backend="serial")
        process = execute_cells(tasks, backend="process", workers=2)
        assert len(serial) == len(process) == 4
        for a, b in zip(serial, process):
            assert a.system.colors == b.system.colors
            assert a.iterations == b.iterations
            assert a.accepted_moves == b.accepted_moves
            assert a.accepted_swaps == b.accepted_swaps
            assert [s.colors for s in a.snapshots] == [
                s.colors for s in b.snapshots
            ]

    def test_results_follow_task_order(self):
        tasks = [make_task(seed=s, steps=100) for s in (9, 8, 7)]
        results = execute_cells(tasks, backend="process", workers=2)
        assert [r.task.seed for r in results] == [9, 8, 7]

    def test_validation_and_argument_errors(self):
        task = make_task()
        with pytest.raises(ValueError):
            execute_cells([task], backend="threads")
        with pytest.raises(ValueError):
            execute_cells([task], backend="process", workers=0)
        with pytest.raises(ValueError):
            execute_cells([task], resume=True)  # no checkpoint_dir
        with pytest.raises(ValueError):
            execute_cells([make_task(steps=-2)])

    @pytest.mark.parametrize("runner", [execute_cells, dispatch_cells])
    def test_mixed_kernels_rejected_before_side_effects(
        self, runner, tmp_path
    ):
        tasks = [
            make_task(seed=1, steps=50, kernel="grid"),
            make_task(seed=2, steps=50, kernel="batch"),
        ]
        directory = tmp_path / "ckpt"
        with pytest.raises(ValueError, match="cannot mix"):
            runner(tasks, checkpoint_dir=directory)
        assert not directory.exists()

    def test_negative_replicas_per_task_rejected_before_side_effects(
        self, tmp_path
    ):
        tasks = [
            make_task(seed=s, steps=50, replica=s, kernel="batch")
            for s in (1, 2)
        ]
        directory = tmp_path / "ckpt"
        seen = []
        with pytest.raises(ValueError, match="replicas_per_task"):
            execute_cells(
                tasks,
                checkpoint_dir=directory,
                replicas_per_task=-1,
                progress=lambda *args: seen.append(args),
            )
        assert not directory.exists()
        assert seen == []

    def test_progress_callback_sees_every_cell(self):
        tasks = [make_task(seed=s, steps=50) for s in (1, 2, 3)]
        seen = []
        execute_cells(
            tasks,
            progress=lambda done, total, result: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestCheckpointResume:
    def test_checkpoints_written_and_resumed(self, tmp_path):
        tasks = [make_task(seed=s, steps=200) for s in (1, 2, 3)]
        first = execute_cells(tasks, checkpoint_dir=tmp_path)
        assert len(list(tmp_path.glob("cell-*.bin"))) == 3

        restored_flags = []
        second = execute_cells(
            tasks,
            checkpoint_dir=tmp_path,
            resume=True,
            progress=lambda done, total, r: restored_flags.append(
                r.from_checkpoint
            ),
        )
        assert restored_flags == [True, True, True]
        for a, b in zip(first, second):
            assert a.system.colors == b.system.colors
            assert a.iterations == b.iterations

    def test_resume_recomputes_only_missing_cells(self, tmp_path):
        tasks = [make_task(seed=s, steps=200) for s in (1, 2, 3)]
        execute_cells(tasks, checkpoint_dir=tmp_path)
        checkpoint_path(tmp_path, tasks[1]).unlink()

        flags = {}
        results = execute_cells(
            tasks,
            checkpoint_dir=tmp_path,
            resume=True,
            progress=lambda done, total, r: flags.setdefault(
                r.task.seed, r.from_checkpoint
            ),
        )
        assert flags == {1: True, 2: False, 3: True}
        assert len(list(tmp_path.glob("cell-*.bin"))) == 3
        assert all(isinstance(r, CellResult) for r in results)

    def test_corrupt_checkpoint_recomputes_with_warning(self, tmp_path):
        task = make_task(steps=150)
        (first,) = execute_cells([task], checkpoint_dir=tmp_path)
        checkpoint_path(tmp_path, task).write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            (second,) = execute_cells(
                [task], checkpoint_dir=tmp_path, resume=True
            )
        assert not second.from_checkpoint
        assert second.system.colors == first.system.colors

    def test_stale_checkpoint_from_other_sweep_ignored(self, tmp_path):
        task = make_task(steps=150)
        other = make_task(steps=150, seed=99)
        execute_cells([other], checkpoint_dir=tmp_path)
        # Forge a filename collision with mismatched content.
        checkpoint_path(tmp_path, task).write_bytes(
            checkpoint_path(tmp_path, other).read_bytes()
        )
        with pytest.warns(RuntimeWarning, match="unusable checkpoint"):
            (result,) = execute_cells(
                [task], checkpoint_dir=tmp_path, resume=True
            )
        assert not result.from_checkpoint


class TestResolveBackend:
    def test_explicit_backend_wins(self):
        assert resolve_backend("serial", workers=8) == "serial"
        assert resolve_backend("process", workers=None) == "process"

    def test_workers_imply_process(self):
        assert resolve_backend(None, workers=2) == "process"
        assert resolve_backend(None, workers=1) == "serial"
        assert resolve_backend(None, workers=None) == "serial"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("threads", workers=None)


class TestGroupByCell:
    def test_groups_replica_innermost(self):
        results = list(range(6))  # stand-ins; grouping is positional
        assert group_by_cell(results, 2) == [[0, 1], [2, 3], [4, 5]]
        assert group_by_cell(results, 1) == [[0], [1], [2], [3], [4], [5]]

    def test_validates(self):
        with pytest.raises(ValueError):
            group_by_cell([1, 2, 3], 2)
        with pytest.raises(ValueError):
            group_by_cell([], 0)


class TestSweepBackends:
    def test_serial_vs_process_sweep_metrics_identical(self):
        kwargs = dict(
            param_grid=grid([1.0, 4.0], [1.0, 4.0]),
            metrics=METRICS,
            n=24,
            iterations=2_000,
            seed=7,
            replicas=2,
        )
        serial = run_sweep(backend="serial", **kwargs)
        parallel = run_sweep(backend="process", workers=2, **kwargs)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.params == b.params
            assert a.metrics == b.metrics
            assert a.replica_values == b.replica_values
            assert a.system.colors == b.system.colors

    def test_std_metrics_recorded(self):
        points = run_sweep(
            grid([4.0], [4.0]),
            metrics=METRICS,
            n=24,
            iterations=1_000,
            seed=1,
            replicas=3,
        )
        (point,) = points
        assert point.metrics["_replicas"] == 3.0
        for name in METRICS:
            assert name + "_std" in point.metrics
            samples = point.replica_values[name]
            assert len(samples) == 3
            assert point.metrics[name] == pytest.approx(
                sum(samples) / 3
            )

    def test_sweep_checkpoint_resume(self, tmp_path):
        kwargs = dict(
            param_grid=grid([1.0, 4.0], [4.0]),
            metrics=METRICS,
            n=20,
            iterations=1_000,
            seed=5,
        )
        first = run_sweep(checkpoint_dir=tmp_path, **kwargs)
        flags = []
        second = run_sweep(
            checkpoint_dir=tmp_path,
            resume=True,
            progress=lambda done, total, r: flags.append(r.from_checkpoint),
            **kwargs,
        )
        assert flags == [True, True]
        for a, b in zip(first, second):
            assert a.metrics == b.metrics


class TestSeedDerivation:
    def test_rng_seeds_no_longer_collapse(self):
        """The historical bug mapped every non-int seed to base 0, so
        sweeps seeded with distinct Random instances were identical."""
        kwargs = dict(
            param_grid=grid([4.0], [4.0]),
            metrics=METRICS,
            n=24,
            iterations=2_000,
        )
        a = run_sweep(seed=random.Random(1), **kwargs)
        b = run_sweep(seed=random.Random(2), **kwargs)
        assert a[0].system.colors != b[0].system.colors

    def test_string_seed_raises_instead_of_degrading(self):
        with pytest.raises(TypeError):
            run_sweep(
                grid([4.0], [4.0]),
                metrics=METRICS,
                n=16,
                iterations=100,
                seed="not-a-seed",
            )

    def test_replica_seed_distinct_per_cell_and_replica(self):
        base = seed_entropy(0)
        seeds = {
            _replica_seed(base, {"lam": lam, "gamma": gamma}, replica)
            for lam in (1.0, 4.0)
            for gamma in (1.0, 4.0)
            for replica in (0, 1, 2)
        }
        assert len(seeds) == 12


class TestHarnessBackends:
    def test_figure3_backends_identical(self):
        kwargs = dict(
            n=24,
            lambdas=(1.0, 4.0),
            gammas=(1.0, 4.0),
            iterations=2_000,
            seed=2018,
        )
        serial = run_figure3(**kwargs)
        parallel = run_figure3(backend="process", workers=2, **kwargs)
        assert serial.phases == parallel.phases
        assert serial.metrics == parallel.metrics

    def test_figure2_replicas_record_spread(self):
        result = run_figure2(
            n=24,
            scale=0.001,
            seed=3,
            replicas=2,
            checkpoints=[500, 1_000],
        )
        assert result.replicas == 2
        assert result.rows_std is not None
        assert len(result.rows_std) == len(result.rows)
        for row in result.rows_std:
            assert all(value >= 0.0 for value in row.values())

    def test_scaling_study_backends_identical(self):
        kwargs = dict(
            sizes=(16, 25),
            steps_per_particle=100,
            replicas=2,
            seed=4,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            serial = scaling_study(**kwargs)
            parallel = scaling_study(backend="process", workers=2, **kwargs)
        assert serial == parallel


class TestKernelKnob:
    """The kernel backend is an engineering choice, not a trajectory one.

    Because trajectories are bit-identical across kernels, the kernel is
    deliberately excluded from ``CellTask.key()``: checkpoints written by
    a dict-kernel sweep resume under the grid kernel (and vice versa)
    without recomputation.
    """

    def test_key_is_kernel_agnostic(self):
        base = make_task()
        assert base.key() == make_task(kernel="grid").key()
        assert base.key() == make_task(kernel="dict").key()

    def test_validate_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            make_task(kernel="numpy").validate()

    def test_worker_results_identical_across_kernels(self):
        payloads = [
            run_cell(task_payload(make_task(steps=3_000, kernel=kernel)))
            for kernel in ("dict", "grid")
        ]
        d, g = payloads
        assert d["final"] == g["final"]
        assert d["accepted_moves"] == g["accepted_moves"]
        assert d["accepted_swaps"] == g["accepted_swaps"]
        assert d["snapshots"] == g["snapshots"]

    def test_dict_checkpoints_resume_under_grid(self, tmp_path):
        dict_tasks = [
            make_task(seed=s, steps=600, kernel="dict") for s in (1, 2)
        ]
        first = execute_cells(dict_tasks, checkpoint_dir=tmp_path)

        grid_tasks = [
            make_task(seed=s, steps=600, kernel="grid") for s in (1, 2)
        ]
        flags = []
        second = execute_cells(
            grid_tasks,
            checkpoint_dir=tmp_path,
            resume=True,
            progress=lambda done, total, r: flags.append(r.from_checkpoint),
        )
        assert flags == [True, True]
        for a, b in zip(first, second):
            assert a.system.colors == b.system.colors
            assert a.iterations == b.iterations

    def test_sweep_metrics_identical_across_kernels(self):
        kwargs = dict(
            param_grid=grid([2.0, 4.0], [4.0]),
            metrics=METRICS,
            n=20,
            iterations=2_000,
            seed=7,
        )
        dict_points = run_sweep(kernel="dict", **kwargs)
        grid_points = run_sweep(kernel="grid", **kwargs)
        for d, g in zip(dict_points, grid_points):
            assert d.params == g.params
            assert d.metrics == g.metrics
            assert d.system.colors == g.system.colors
