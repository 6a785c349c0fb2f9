#!/usr/bin/env python3
"""Build the perfbench Go module from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 20 --trace 0

Every build product, the Go build cache, temporary files and the
benchmark's working files stay under .bench_build/ in the repository
root. The arguments are passed to the benchmark unchanged; its last
line of output is the result as one JSON object. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    defaults = ["--ref", os.path.join(here, "reference.json"), "--work", build]
    return subprocess.run([binary] + defaults + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
