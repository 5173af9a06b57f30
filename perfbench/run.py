#!/usr/bin/env python3
"""uqkit benchmark: runs one workload through the real CLI and prints its metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload aso-tables --seed 0 --seconds 36 --trace 0

A closed loop with one client: one CLI child process at a time, each started
as `python3 -m uqkit.cli ...` with PYTHONPATH=src, so process start and
import are included. A pass runs the workload's invocations once; passes
repeat until another, as long as the longest so far, would end after
--seconds (untraced, at least MIN_PASSES run).
Every output is checked against pinned references (workloads.py).

Times are given at a reference machine speed. On a shared machine the speed
of a core changes by up to about 2x over minutes, as other tenants load it,
and a run cannot outlast that. So this process runs a fixed calibration loop
(calibrate()) before the first child and after every child. Wall times of
the run are multiplied by REFERENCE_S over the loop's mean wall time, CPU
times by REFERENCE_S over its mean CPU time. The loop is benchmark code and
does not change with uqkit, so a change to uqkit moves the scaled times as it
moves the raw ones. Raw times are printed too.

--trace 0 prints the end-to-end metrics:
    wall_s       sum over the workload's calls of each call's median wall time over
                 the passes, times the wall speed factor
    items_per_s  items completed by correct calls in a pass (mean over passes) / wall_s
    setup_s      median wall time of fresh interpreters importing uqkit.cli, times the
                 wall speed factor; SETUP_SPAWNS_PER_PASS are spawned before each pass
                 and one after the last (after one untimed warm-up spawn)
    cpu_s        as wall_s, for the children's user+system CPU (os.wait4), times the
                 CPU speed factor
    peak_rss_mb  largest ru_maxrss among the passes' children
--trace 1 alternates an untraced pass with a pass through trace_launcher.py,
asserts that both print the same stdout bytes, and prints the per-layer
metrics of layers.py (medians over traced passes) and trace.overhead_frac.

The last stdout line is one JSON object with the keys correct, attempted,
failed (CLI calls checked, and those whose exit code or output was wrong) and
metrics. `correct` is false when a call fails in a way that is not a listed
known defect. UQKIT_THREADS is removed from the children's environment, so
every call uses the default single worker.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
LAUNCHER = HERE / "trace_launcher.py"

END_TO_END = {"wall_s": "s", "items_per_s": "items/s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
SETUP_SPAWNS_PER_PASS = 1
MIN_PASSES = 2  # untraced: at least two samples of every call
# REFERENCE_S fixes the unit of the scaled times: about the fastest calibrate()
# time on the machine the benchmark was built on (Intel Xeon, 2 vCPUs, Python
# 3.11, numpy 2.4), where a loaded core takes up to twice as long.
CALIBRATION_ROUNDS = 120000
REFERENCE_S = 0.2
# A run must end within 180 s; no child may outlive this deadline from the start.
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("UQKIT_THREADS", None)
    # Let uqkit's bytecode be cached in src/ as an installed package's would be.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], out_path: Path, err_path: Path, env: dict, deadline: float) -> Child:
    """Run one child to completion; wall time includes process start, rusage is the child's own."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def calibrate() -> tuple[float, float]:
    """Wall and CPU time of a fixed loop of small numpy calls and interpreted
    Python, the kind of work the uqkit CLI does."""
    vector = np.arange(64, dtype=np.float64)
    total, table = 0.0, {}
    start, start_cpu = time.perf_counter(), time.process_time()
    for i in range(CALIBRATION_ROUNDS):
        total += float(np.dot(vector, vector))
        table[i % 97] = total
        total = sum(range(40)) + total * 0.5
    return time.perf_counter() - start, time.process_time() - start_cpu


@dataclass
class PassResult:
    walls: dict[str, float] = field(default_factory=dict)  # per call label, raw
    cpus: dict[str, float] = field(default_factory=dict)
    maxrss_kb: int = 0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)       # failures that are not known defects
    known: list[str] = field(default_factory=list)        # failures that are known defects
    stdouts: dict[str, bytes] = field(default_factory=dict)
    span_files: list[Path] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls.values())


def run_pass(workload, input_set: int, inputs: Path, pass_dir: Path, refs: dict, env: dict,
             deadline: float, traced: bool,
             calibrations: list[tuple[float, float]] | None = None) -> PassResult:
    """Run the workload's calls once; after each, append a calibrate() time to
    `calibrations` unless it is None."""
    pass_dir.mkdir(parents=True)
    result = PassResult()
    for inv in workload.build(input_set, inputs, pass_dir, refs):
        if traced:
            spans = pass_dir / f"{inv.label}.spans.json"
            argv = [sys.executable, str(LAUNCHER), str(spans), "--", *inv.args]
            result.span_files.append(spans)
        else:
            argv = [sys.executable, "-m", "uqkit.cli", *inv.args]
        child = run_child(argv, workloads.stdout_path(pass_dir, inv.label),
                          pass_dir / f"{inv.label}.err", env, deadline)
        result.walls[inv.label] = child.wall_s
        result.cpus[inv.label] = child.cpu_s
        if calibrations is not None:
            calibrations.append(calibrate())
        result.maxrss_kb = max(result.maxrss_kb, child.maxrss_kb)
        result.attempted += 1
        result.stdouts[inv.label] = child.stdout
        try:
            error = inv.check(child.returncode, child.stdout, child.stderr)
        except (ValueError, KeyError, LookupError, TypeError) as exc:  # unparsable output
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is None:
            result.items += inv.items
            continue
        result.failed += 1
        message = f"{workload.name}/{inv.label}: {error}"
        if inv.known_defect is not None and inv.known_defect.matches(child.returncode, child.stderr):
            result.known.append(f"{message} [known defect: {inv.known_defect.note}]")
        else:
            result.errors.append(message)
    return result


def measure_setup(env: dict, work: Path, deadline: float, times: list[float],
                  calibrations: list[tuple[float, float]] | None) -> None:
    """Append the wall time of a fresh interpreter that imports uqkit.cli and exits."""
    i = len(times)
    child = run_child([sys.executable, "-c", "import uqkit.cli"], work / f"setup{i}.out",
                      work / f"setup{i}.err", env, deadline)
    if child.returncode != 0:
        raise RuntimeError("import uqkit.cli failed: "
                           + child.stderr.decode("utf-8", "replace").strip()[-500:])
    times.append(child.wall_s)
    if calibrations is not None:
        calibrations.append(calibrate())


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uqkit").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_size() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            if level > best[0]:
                best = (level, f"L{level} {(index / 'size').read_text().strip()}")
        except (OSError, ValueError):
            continue
    return best[1]


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(args, input_set: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc": _llc_size(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "uqkit_threads": "cleared (was " + repr(os.environ.get("UQKIT_THREADS")) + ")",
        "workload": args.workload,
        "seed": args.seed,
        "input_set": input_set,
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
    }


def _loop(seconds: float, run_once, min_passes: int) -> list:
    """Run `min_passes` passes, then more until another one, as long as the longest
    pass so far, would end after `seconds`."""
    results, start, longest = [], time.perf_counter(), 0.0
    while True:
        began = time.perf_counter()
        results.append(run_once(len(results)))
        end = time.perf_counter()
        longest = max(longest, end - began)
        if len(results) >= min_passes and end - start + longest > seconds:
            return results


def _per_call(passes: list[PassResult], kind: str) -> float:
    """Sum over the calls of each call's median time over the passes."""
    return sum(statistics.median(getattr(p, kind)[label] for p in passes)
               for label in passes[0].walls)


def untraced_run(args, workload, input_set, inputs, work, refs, env, deadline):
    # Setup spawns are spread over the run, so one slow spell does not cover them all.
    setup: list[float] = []
    # Warm-up, untimed: the first import in a checkout writes uqkit's bytecode cache.
    measure_setup(env, work, deadline, [], None)
    calibrations = [calibrate()]

    def one_pass(i):
        for _ in range(SETUP_SPAWNS_PER_PASS):
            measure_setup(env, work, deadline, setup, calibrations)
        return run_pass(workload, input_set, inputs, work / f"pass{i}", refs, env, deadline,
                        traced=False, calibrations=calibrations)

    passes = _loop(args.seconds, one_pass, MIN_PASSES)
    measure_setup(env, work, deadline, setup, calibrations)
    raw = {"wall_s": _per_call(passes, "walls"), "setup_s": statistics.median(setup),
           "cpu_s": _per_call(passes, "cpus")}
    speed = REFERENCE_S / statistics.fmean(wall for wall, _ in calibrations)
    cpu_speed = REFERENCE_S / statistics.fmean(cpu for _, cpu in calibrations)
    metrics = {
        "wall_s": raw["wall_s"] * speed,
        "items_per_s": statistics.fmean(p.items for p in passes) / (raw["wall_s"] * speed),
        "setup_s": raw["setup_s"] * speed,
        "cpu_s": raw["cpu_s"] * cpu_speed,
        "peak_rss_mb": max(p.maxrss_kb for p in passes) / 1024.0,
    }
    print(f"passes {len(passes)}; raw pass walls {', '.join(f'{p.wall_s:.3f}' for p in passes)} s; "
          f"raw setup spawns {', '.join(f'{t:.3f}' for t in setup)} s")
    for label in passes[0].walls:
        print(f"call {label}: raw walls {', '.join(f'{p.walls[label]:.3f}' for p in passes)} s")
    walls = [wall for wall, _ in calibrations]
    print(f"calibration: {len(walls)} loops, wall mean {statistics.fmean(walls):.4f} s, "
          f"range {min(walls):.4f}-{max(walls):.4f} s; speed factors wall {speed:.4f}, "
          f"CPU {cpu_speed:.4f}")
    print("raw (not scaled): " + ", ".join(f"{name} {value!r} s" for name, value in raw.items()))
    return passes, metrics, END_TO_END


def traced_run(args, workload, input_set, inputs, work, refs, env, deadline):
    def pair(i):
        plain = run_pass(workload, input_set, inputs, work / f"plain{i}", refs, env, deadline,
                         traced=False)
        traced = run_pass(workload, input_set, inputs, work / f"traced{i}", refs, env, deadline,
                          traced=True)
        for label, out in plain.stdouts.items():
            if traced.stdouts.get(label) != out:
                traced.failed += 1
                traced.errors.append(f"{workload.name}/{label}: traced stdout differs from untraced")
        spans = layers.PassSpans()
        for path in traced.span_files:
            if path.exists():
                spans.add_file(path)
                path.unlink()
            else:
                traced.errors.append(f"{workload.name}: no spans written to {path.name}")
        # A function the launcher could not wrap would read 0 and look like a gain.
        for name in sorted(spans.missing):
            traced.errors.append(f"{workload.name}: traced function {name} not found; "
                                 "update tracing.py so its layer metrics are not reported as 0")
        return plain, traced, spans.metrics()

    pairs = _loop(args.seconds, pair, 1)
    metrics = {name: statistics.median(m[name] for _, _, m in pairs)
               for name in layers.PER_LAYER if name != "trace.overhead_frac"}
    plain_wall = statistics.median(p.wall_s for p, _, _ in pairs)
    traced_wall = statistics.median(t.wall_s for _, t, _ in pairs)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    print(f"pairs {len(pairs)}; untraced wall {plain_wall:.3f} s, traced wall {traced_wall:.3f} s")
    return [p for pr in pairs for p in pr[:2]], metrics, layers.PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "uqkit" / "cli.py").is_file():
        print(f"error: no uqkit sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    input_set = workloads.input_set_of(args.seed)
    refs = workloads.load_references()
    env = child_env()
    print("env " + json.dumps(environment(args, input_set), sort_keys=True))

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    inputs = work / "inputs"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with the same pid
    inputs.mkdir(parents=True)
    try:
        workload.prepare(input_set, inputs)
        run = traced_run if args.trace else untraced_run
        passes, metrics, units = run(args, workload, input_set, inputs, work, refs, env, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    for message in sorted(set(errors)):
        print(f"FAILED {message}")
    for message in sorted({k for p in passes for k in p.known}):
        print(f"FAILED {message}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} calls); "
          f"run took {time.perf_counter() - start:.1f} s")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
