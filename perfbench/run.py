#!/usr/bin/env python3
"""perfbench/run.py - build and run the validator's benchmark.

    python3 perfbench/run.py --workload cold-pairs|warm-replay|fleet-open \
        --seed N --seconds S --trace 0|1 [--suite-seed N]

Run from the repository root. Builds perfbench/ (which builds the llvmmd
library and the validate_server worker from ../src) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload. Build output goes to stderr. The benchmark's report goes to
stdout, and its last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 1 the Chrome trace is written to
<build dir>/trace-<workload>-<seed>.json and must pass
`scripts/check_obs.py trace`. Exits nonzero on a build failure, a wrong
verdict, a failed operation or a rejected trace.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def arg(argv, name, default=None):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main(argv):
    os.chdir(ROOT)
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workload = arg(argv, "--workload", "")
    seed = arg(argv, "--seed", "0")
    traced = arg(argv, "--trace", "0") == "1"
    work_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    trace_out = os.path.join(build_dir, "trace-%s-%s.json" % (workload, seed))
    os.makedirs(work_dir, exist_ok=True)
    cmd = ([os.path.join(build_dir, "perfbench")] + argv +
           ["--work-dir", work_dir,
            "--worker", os.path.join(build_dir, "llvmmd", "validate_server"),
            "--trace-out", trace_out])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    result_line = lines[-1] if lines else ""
    try:
        result = json.loads(result_line)
    except ValueError:
        sys.stdout.write(out)
        print("perfbench: no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    code = proc.returncode
    if traced and code == 0:
        check = subprocess.run(
            [sys.executable, os.path.join("scripts", "check_obs.py"), "trace",
             trace_out], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        print(check.stdout.rstrip("\n"))
        if check.returncode != 0:
            result["correct"] = False
            result["failed"] += 1
            code = 1
    print(json.dumps(result) if code != proc.returncode else result_line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
