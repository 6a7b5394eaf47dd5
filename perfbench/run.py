#!/usr/bin/env python3
"""Build and run the alp end-to-end benchmark.

Usage, from anywhere inside a checkout:

    python3 perfbench/run.py --workload compile_corpus --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The first call configures and builds perfbench/ (which compiles the alp
libraries from src/) into .bench_build/perfbench; later calls rebuild only
what changed. Every argument is passed on to the alp_bench binary, whose
last stdout line is the JSON result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        return subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode


def build():
    """Configures and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no alp sources (src/CMakeLists.txt) in " + ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            sys.exit("perfbench: cmake configure failed; see " + log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", out, "--target", "alp_bench",
                   "-j", jobs], log) != 0:
        sys.exit("perfbench: build failed; see " + log)
    return os.path.join(out, "alp_bench")


def names_match(stdout):
    """Self-check: each workload prints exactly BENCHMARK.json's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        traced = workload + ".traced."
        for kind, prefix in (("end_to_end", workload + "."),
                             ("per_layer", traced)):
            want = {m["name"] for m in spec[kind]}
            got = {k[len(prefix):] for k in metrics if k.startswith(prefix)
                   and (kind == "per_layer" or not k.startswith(traced))}
            if got != want:
                ok = False
                print("perfbench: %s %s metrics differ from BENCHMARK.json: "
                      "missing %s, extra %s" % (workload, kind,
                                                sorted(want - got),
                                                sorted(got - want)),
                      file=sys.stderr)
    return ok


def main():
    binary = build()
    cmd = [binary, "--root", ROOT] + sys.argv[1:]
    if "--self-check" not in sys.argv[1:]:
        return subprocess.run(cmd, cwd=ROOT).returncode
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode == 0 and not names_match(proc.stdout):
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
