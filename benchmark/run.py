#!/usr/bin/env python3
"""Build the MIDAS benchmark from source and run one workload.

Usage (from the repository root):

    python3 benchmark/run.py --workload evolve --seed 1 --seconds 8 --trace 0

The Go build cache, the module cache and the binary live in
.bench_build/ at the repository root, so the benchmark reads and writes
nothing outside the checkout. The last line of standard output is the
JSON result; progress goes to standard error.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "midas-benchmark")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
