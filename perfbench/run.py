#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload scale_failover --seed 1 --seconds 25 --trace 0

Every argument is passed to the binary (see README.md). The build and the
Go caches live under $CARGO_TARGET_DIR (default .bench_build) in the
repository root, so nothing is read or written outside the checkout. The
last line of standard output is the JSON result; the exit code is the
binary's, or 2 when the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def go_env(out):
    env = dict(os.environ)
    home = out / "home"
    env.update(
        GOCACHE=str(out / "gocache"),
        GOMODCACHE=str(out / "gomodcache"),
        GOPATH=str(out / "gopath"),
        HOME=str(home),
        XDG_CONFIG_HOME=str(home / ".config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=mod",
    )
    return env


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the Go sources, so results always name the code they measured."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    skip = {".git", build_dir().name}
    files = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        if Path(dirpath) == ROOT:
            dirnames[:] = [d for d in dirnames if d not in skip]
        files += [Path(dirpath, f) for f in filenames if f.endswith(".go") or f == "go.mod"]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main(argv):
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    env = go_env(out)
    binary = out / "perfbench"
    build = subprocess.run(["go", "build", "-o", str(binary), "."],
                           cwd=BENCH, env=env, timeout=900)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [str(binary), *argv, "--commit", source_id()]
    return subprocess.run(cmd, cwd=ROOT, env=env, timeout=600).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
