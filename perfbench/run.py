#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-contended --seed 1 --seconds 30 --trace 0

The Go program in this directory is built against the checkout's source
(its go.mod replaces the treesched module with the parent directory). Every
file the build writes -- the binary, Go's build cache, its temporary files
-- goes under .bench_build in the checkout, or under the directory
CARGO_TARGET_DIR names when it is set. All arguments are passed to the
benchmark binary, whose last line of output is the result JSON and whose
exit code this script returns.
"""
import os
import subprocess
import sys

sys.dont_write_bytecode = True


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
