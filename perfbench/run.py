#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload figures|ingest|clone --seed N --seconds S --trace 0|1

The Go program is built from source into .bench_build/ (or
$CARGO_TARGET_DIR when set), with the Go build cache kept there too, so
the benchmark writes nothing outside the checkout. Its last line of
standard output is the JSON result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out_dir, "gocache"),
        "GOPATH": os.path.join(out_dir, "gopath"),
        "GOMODCACHE": os.path.join(out_dir, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out_dir, "tmp"),
        # The go command keeps telemetry counters under the user's config
        # directory; keep those inside the checkout as well.
        "HOME": os.path.join(out_dir, "home"),
        "XDG_CONFIG_HOME": os.path.join(out_dir, "home", ".config"),
        "GOFLAGS": "-buildvcs=false -mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out_dir, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=170)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
