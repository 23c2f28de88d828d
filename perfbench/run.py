#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload place-n10 --seed 1 --seconds 20 --trace 0

The Go program is built from source into $CARGO_TARGET_DIR, or .bench_build
when that is unset; the Go build and module caches and the service
workload's journal directory stay there too, so nothing is written outside
the checkout. The program's standard output, whose last line is the JSON
result, passes through; the exit status is the program's, or 1 when the
build fails.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 178


def main():
    root = os.getcwd()
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    scratch = os.path.join(out, "scratch")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "go-cache"),
        "GOMODCACHE": os.path.join(out, "go-mod"),
        "GOPATH": os.path.join(out, "go-path"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
        "TMPDIR": scratch,
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=os.path.join(root, "perfbench"),
                               env=env, stdout=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        # Go's flag package reads --name as -name, so the arguments pass as given.
        runs = 4 if "all" in sys.argv[1:] else 1  # --workload all runs the four in turn
        return subprocess.run([binary, "-scratch", scratch] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S * runs).returncode
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: {e.cmd[0]} timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
