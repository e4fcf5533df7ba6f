#!/usr/bin/env python3
"""Build the serving benchmark from source and run it.

Run from the repository root:

    python3 servebench/run.py --workload warm-hit --seed 1 --seconds 15 --trace 0

The Go build cache, the go command's config, temporary files and the
binary stay under .bench_build/ in the current directory, and the
toolchain is never downloaded. The arguments are passed to the benchmark unchanged; its
standard output, whose last line is the JSON result, is its own.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.exit("servebench: run from the repository root (no go.mod here)")
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOMODCACHE=os.path.join(build, "gomod"),
        # The go command's config and telemetry live under the user
        # config directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "bin", "servebench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "./servebench"],
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        sys.exit("servebench: build failed")
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
