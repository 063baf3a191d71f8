#!/usr/bin/env python3
"""lrclab benchmark: three seeded workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {sweep_copy,sweep_py,corpus} \\
        --seed N --seconds S --trace {0,1}

The program is imported from `src/` of the current directory; nothing is
installed. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (`setup_s`, `wall_s`, `peak_rss_mb`); with
`--trace 1` they are the per-layer ones of BENCHMARK.json, which include
`failed_ops_ratio`, the traced wall time, its unattributed remainder and
`trace_overhead_s`. Progress, the environment record and output hashes go
to standard error, and the spans of traced passes to
`.perfbench_run/spans-<workload>-pass<i>.jsonl`.

Workloads (all closed loops driven from this one process):

* sweep_copy: `harness.run_sweep` + `write_sweep_result` with 2 workers
  over Simon alpha in {0.1, 0.2, 0.3, 0.4}, then conjunct
  (a, b) in {0, 0.68} x {0, 0.8}, at 10^6 elements. Generation and
  analysis share the time; the only workload using the process pool.
* sweep_py: the same for Pitman-Yor with 1 worker (serial path). The
  Fenwick-tree generator does almost all the work.
* corpus: `lrclab.cli.main` in-process on a seeded synthetic CHAT
  transcript of about 10^6 words: chat-extract -> analyze -> shuffle ->
  analyze -> generate bigram -> analyze -> figure acf. Parsing, token-file
  I/O and CLI metadata; no incremental generator runs.

Measurement. One run repeats passes of the workload until `--seconds` have
passed and reports medians over its passes. Each pass runs in a process
forked from this one after the inputs are built, so every pass starts
from the same state and the pass's peak resident set is its own:
`peak_rss_mb` is the high-water mark of the pass process plus the largest
sum of high-water marks of the pool workers alive together, polled from
/proc. `setup_s` is the median over several fresh interpreters of the
time from process start until `import lrclab.cli` returns. With
`--trace 1`, untraced and traced passes alternate; the traced ones wrap
the program's public functions from outside (see spans.py).

Timings are wall-clock only (`time.perf_counter`): the benchmark pins no
CPU and traces no process but its own. BLAS and OpenMP pools of the
benchmark and of every process it starts are capped at one thread, so two
pool workers never run more threads than cores.

Failures. An operation is one sweep record or one CLI command. An
exception, a non-zero exit or a failed output check fails it; the pass
goes on. `failed` / `attempted` is the run's failed-operation ratio.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere, here or in a child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_run"
# setup_s samples: a batch before the first pass and after the last, one
# between passes, so that the median spans the whole run.
SETUP_BATCH = 5
# A run must end within 180 s; no new pass starts that would end past this.
RUN_LIMIT_S = 150.0
POLL_S = 0.02


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["sweep_copy", "sweep_py", "corpus"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--elements", type=int, default=10**6,
                   help="sequence length of the sweeps and word count of the transcript (self-test: 10^4)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative: it seeds the models' generators")
    return args


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _vm_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                out.extend(int(c) for c in fh.read().split())
    except OSError:
        pass
    return out


def measure_setup(samples: int) -> list[float]:
    """Seconds from launching a fresh interpreter until `import lrclab.cli`
    returns. perf_counter reads the system-wide monotonic clock, so the
    child's reading and ours share one time axis."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import time, lrclab.cli; print(repr(time.perf_counter()))"
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def environment() -> dict:
    import numpy as np

    # The ceiling keeps git from reporting a repository above the checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "timing": "wall-clock only; no CPU pinning, no tracing beyond the benchmark's own processes",
    }


def _pass_body(workload, passdir: Path, traced: bool) -> dict:
    import spans

    tracer = None
    if traced:
        spool = passdir / "spool"
        spool.mkdir()
        tracer = spans.Tracer(spool)
        spans.instrument(tracer)
    t0 = time.perf_counter()
    outcomes = workload.run(passdir, tracer)
    wall = time.perf_counter() - t0
    result = {"wall_s": wall, "hwm_kb": _vm_kb(os.getpid(), "VmHWM")}
    if traced:
        collected = tracer.collect()
        result["layer"] = spans.layer_metrics(collected, wall, os.getpid(), workload.workers)
        result["spans"] = [s.__dict__ for s in collected]
    result["checked"] = workload.check(passdir, outcomes)
    return result


def _watch(pid: int, deadline: float) -> tuple[int | None, int]:
    """Wait for the pass process, polling its workers' high-water marks.
    Returns its wait status (None if killed at the deadline) and the
    largest sum of the marks of workers alive together, in kB."""
    marks: dict[int, int] = {}
    peak = 0
    try:
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                return status, peak
            if time.monotonic() > deadline:
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return None, peak
            alive = 0
            for child in _children(pid):
                marks[child] = max(marks.get(child, 0), _vm_kb(child, "VmHWM"))
                alive += marks[child]
            peak = max(peak, alive)
            time.sleep(POLL_S)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise


def run_pass(workload, index: int, traced: bool, deadline: float) -> dict:
    """Run one pass in a forked process group and return its result."""
    from workloads import Checked

    passdir = WORKDIR / f"pass{index}"
    passdir.mkdir()
    result_path = passdir / "result.pkl"
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.setpgid(0, 0)
            result = _pass_body(workload, passdir, traced)
            with open(result_path, "wb") as fh:
                pickle.dump(result, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child already made itself the group leader
    status, workers_kb = _watch(pid, deadline)
    if status == 0 and result_path.exists():
        with open(result_path, "rb") as fh:
            result = pickle.load(fh)
        result["peak_rss_mb"] = (result["hwm_kb"] + workers_kb) * 1024 / 1e6
    else:
        why = "killed at the run's time limit" if status is None else f"exited with status {status}"
        result = {"wall_s": None, "checked": Checked(workload.ops, workload.ops, [f"pass {why}"])}
    if traced and "spans" in result:
        with open(WORKDIR / f"spans-{workload.name}-pass{index}.jsonl", "w", encoding="utf-8") as fh:
            for span in result.pop("spans"):
                fh.write(json.dumps(span) + "\n")
    shutil.rmtree(passdir)
    result["traced"] = traced
    return result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (SRC / "lrclab" / "__init__.py").is_file():
        _log(f"perfbench: no lrclab sources under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import lrclab

    if not Path(lrclab.__file__).resolve().is_relative_to(SRC.resolve()):
        _log(f"perfbench: imported lrclab from {lrclab.__file__}, not from {SRC}")
        return 2
    import spans
    from workloads import WORKLOADS

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    env = environment()
    _log("environment " + json.dumps(env))
    (WORKDIR / "env.json").write_text(json.dumps(env, indent=2) + "\n", encoding="utf-8")

    workload = WORKLOADS[args.workload](args.seed, args.elements, WORKDIR)
    setup = measure_setup(SETUP_BATCH) if args.trace == 0 else []

    passes: list[dict] = []
    deadline = started + RUN_LIMIT_S
    t0 = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        p0 = time.monotonic()
        res = run_pass(workload, len(passes), traced, deadline)
        passes.append(res)
        checked = res["checked"]
        _log(f"pass {len(passes) - 1} {'traced' if traced else 'untraced'}: wall_s={res['wall_s']} "
             f"peak_rss_mb={res.get('peak_rss_mb')} failed={checked.failed}/{checked.attempted}")
        for failure in checked.failures:
            _log(f"  FAILED {failure}")
        enough = args.trace == 0 or len(passes) >= 2
        if enough and (time.perf_counter() - t0 >= args.seconds
                       or time.monotonic() + 1.5 * (time.monotonic() - p0) > deadline):
            break
        if args.trace == 0:
            setup += measure_setup(1)
    if args.trace == 0:
        setup += measure_setup(SETUP_BATCH)

    # Outputs gated on byte identity must match the first pass's.
    reference = passes[0]["checked"].identity
    for i, res in enumerate(passes[1:], start=1):
        checked = res["checked"]
        for name, (digest, ops) in checked.identity.items():
            if name in reference and reference[name][0] != digest:
                checked.failed += ops
                checked.failures.append(f"{name} differs between pass 0 and pass {i}")
                _log(f"  FAILED {name} differs between pass 0 and pass {i}")
    _log("output hashes " + json.dumps({**passes[0]["checked"].info,
                                        **{k: v[0] for k, v in reference.items()}}, sort_keys=True))

    attempted = sum(r["checked"].attempted for r in passes)
    failed = sum(r["checked"].failed for r in passes)
    timed = [r for r in passes if r["wall_s"] is not None]
    untraced = [r for r in timed if not r["traced"]]
    traced_passes = [r for r in timed if r["traced"]]
    if not untraced or (args.trace == 1 and not traced_passes):
        _log("perfbench: no pass completed")
        return 1
    wall = statistics.median(r["wall_s"] for r in untraced)
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
        _log(f"setup_s samples {setup}")
    else:
        layer = {name: statistics.median(r["layer"][name] for r in traced_passes)
                 for name in traced_passes[0]["layer"]}
        layer["trace_overhead_s"] = statistics.median(r["wall_s"] for r in traced_passes) - wall
        layer["failed_ops_ratio"] = failed / attempted
        metrics = {name: (layer[name], unit) for name, unit in spans.METRIC_UNITS.items()}
    _log(f"failed_ops_ratio={failed / attempted} ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
