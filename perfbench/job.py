"""Run one ballab CLI job in this fresh interpreter and report it as one JSON line.

    python3 perfbench/job.py <off|full|pool> <job-id> -- <ballab arguments...>

The job imports ``ballab.cli`` from the checkout's ``src`` and calls
``cli.main(argv)`` in-process, the same code path as the ``ballab`` console
script.  The import and the call are timed separately; the CLI's standard
output is captured and returned with the exit code, a traceback if the call
raised, and the CPU time and peak RSS of this process and of its reaped
children (the search's pool workers).  A fixed calibration runs after the
import and just before and after the call (on as many cores at once as the
job has pool workers), so that run.py can scale the job's times to a
steady core speed.  No interpreter limit is changed, so errors such as the
int-to-str digit limit show as they would for a user.
"""

import time

STARTED_NS = time.monotonic_ns()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


# Python source for calibrate() to compile: parser and compiler work with a
# larger code and data footprint than the arithmetic loop.
_CALIBRATION_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    c = [a * {i} + b for _ in range(b)]\n    return {{'k': c, 'n': len(c)}}\n"
    for i in range(60))


def calibrate() -> list[int]:
    """Nanoseconds this process takes for two fixed pieces of pure-Python work.

    A big-integer arithmetic loop, then compiling a fixed piece of source.
    They measure how fast the core runs Python right now, which on a shared
    host drifts by tens of percent within seconds; the benchmark scales each
    job's times by them.
    """
    start = time.monotonic_ns()
    x = 3 ** 200
    total = 0
    for i in range(15000):
        total += (x * i) % 1000003
    middle = time.monotonic_ns()
    compile(_CALIBRATION_SOURCE, "<calibration>", "exec")
    return [middle - start, time.monotonic_ns() - middle]


def calibrate_cores(count: int) -> list[list[int]]:
    """calibrate() in this process and count - 1 forked ones at the same time.

    A job with a pool of count workers runs on that many cores, and each core
    drifts on its own.  The first value is this process's own.
    """
    children = []
    for _ in range(count - 1):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            os.write(write_end, " ".join(map(str, calibrate())).encode())
            os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    values = [calibrate()]
    for pid, read_end in children:
        with os.fdopen(read_end) as pipe:
            values.append([int(v) for v in pipe.read().split()])
        os.waitpid(pid, 0)
    return values


def main() -> None:
    mode, job_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: job.py <off|full|pool> <job-id> -- <ballab arguments...>")
    import_start = time.monotonic_ns()
    import ballab.cli as cli
    import_end = time.monotonic_ns()

    import contextlib
    import io
    import json
    import resource
    import traceback

    tracer = None
    if mode != "off":
        from tracer import Tracer

        tracer = Tracer(job_id)
        tracer.install(mode)

    def run_cli() -> int:
        if tracer is None:
            return cli.main(argv)
        return tracer.span("cli.main", cli.main, argv)

    def cpu_s() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime

    workers = max(1, int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1)
    captured = io.StringIO()
    error = None
    calibration_cpu = cpu_s()
    # alone on its core, as the interpreter start and the import were
    calibration_start = calibrate()
    # on as many cores as the job will keep busy
    calibration_before = [calibration_start] if workers == 1 else calibrate_cores(workers)
    calibration_cpu = cpu_s() - calibration_cpu
    main_start = time.monotonic_ns()
    try:
        with contextlib.redirect_stdout(captured):
            code = run_cli() if tracer is None else tracer.span("job", run_cli)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        code = 1  # what an uncaught exception makes the interpreter exit with
        error = traceback.format_exc()
    main_end = time.monotonic_ns()
    job_cpu_s = cpu_s() - calibration_cpu
    maxrss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    calibration_after = calibrate_cores(workers)

    report = {
        "exit": code,
        "stdout": captured.getvalue(),
        "error": error,
        "started_ns": STARTED_NS,
        "import_start_ns": import_start,
        "import_end_ns": import_end,
        "main_start_ns": main_start,
        "main_end_ns": main_end,
        "calibration_ns": {"start": calibration_start, "before": calibration_before,
                           "after": calibration_after},
        "cpu_s": job_cpu_s,
        "maxrss_kb": maxrss_kb,
        "trace": None if tracer is None else tracer.report(),
    }
    sys.stdout.write(json.dumps(report))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
