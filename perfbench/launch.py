"""Run ``python -m repro ARGS`` with the benchmark's hooks in place.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python -m perfbench.launch MODE STAMP TRACE_DIR -- ARGS...

``MODE`` is ``plain`` (record the first ``dispatch_cells`` call and run
to the end), ``setup`` (exit with code 0 at that call) or ``trace``
(wrap every layer, see :mod:`perfbench.tracing`).  ``STAMP`` receives a
JSON object with the process start, the ``import repro.cli`` time and
the first dispatch, all on the system-wide monotonic clock.
"""

import time

START = time.monotonic()

import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

from perfbench import tracing  # noqa: E402


def main() -> None:
    mode, stamp_path, trace_dir, dash, *argv = sys.argv[1:]
    if dash != "--" or mode not in ("plain", "setup", "trace"):
        raise SystemExit(__doc__)
    stamp = {"start": START, "pid": os.getpid()}
    recorder = tracing.install(mode, trace_dir, stamp_path, stamp)
    began = time.perf_counter()
    import repro.cli  # noqa: F401

    stamp["import_s"] = time.perf_counter() - began
    sys.argv = ["repro", *argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        if mode == "trace":
            stamp["unpatched"] = tracing.unpatched_bindings(recorder)
            recorder.flush()
        recorder.write_stamp(stamp_path)


if __name__ == "__main__":
    main()
