#!/usr/bin/env python3
"""Build and run the job benchmark described by BENCHMARK.json.

    python3 jobbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 jobbench/run.py --self-test

The first form builds jobbench/main.exe with dune (into _build/ of the
checkout; build output goes to standard error) and runs it with the given
arguments from the checkout root. Its last line of standard output is the
JSON result. It exits non-zero if the build fails or any output check fails.

--self-test runs every workload briefly in both trace modes and checks that
each metric BENCHMARK.json names is printed with its unit, then checks that a
job made to fail (an unknown tool) is counted and fails the command.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "jobbench", "main.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet",
           "./jobbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"jobbench: build failed: {e}", file=sys.stderr)
        return False
    if r.returncode != 0:
        print("jobbench: build failed", file=sys.stderr)
    return r.returncode == 0


def run(args, capture=False):
    return subprocess.run([EXE] + args, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            what = f"{w['name']} --trace {trace}"
            r = run(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                     "--trace", trace], capture=True)
            lines = r.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{what}: no JSON result")
                continue
            if r.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{what}: exit {r.returncode}, result {lines[-1]}")
            for m in listed:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{what}: metric {m['name']} missing or unit "
                                    f"not {m['unit']}")
                elif not any(l.split()[:1] == [m["name"]] and l.split()[2:3] == [m["unit"]]
                             for l in lines[:-1]):
                    problems.append(f"{what}: {m['name']} not printed with its unit")
            print(f"self-test: {what}: {len(listed)} metrics checked", file=sys.stderr)
    r = run(["--workload", "cold_mixed", "--seed", "1", "--seconds", "1",
             "--trace", "0", "--inject-fail"], capture=True)
    try:
        result = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if r.returncode == 0 or not result or result["failed"] < 1 or result["correct"]:
        problems.append(f"injected failure: exit {r.returncode}, result {result}")
    else:
        print("self-test: injected failure counted and failed the command",
              file=sys.stderr)
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main(argv):
    if not build():
        return 2
    if argv == ["--self-test"]:
        return self_test()
    return run(argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
