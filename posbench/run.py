#!/usr/bin/env python3
"""The repository benchmark: the paper's case-study campaigns on pos and
vpos, and a traced per-layer split.

Run from the root of a checkout:

    python3 posbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the `pos` binary and the `posbench` harness from source
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), works
under `.bench_work/`, prints one environment line and, as its last line,
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. It exits 1 when a correctness check fails and 2 on a usage or
build error. `--record-golden` rewrites `posbench/golden.json`.

Set POSBENCH_TOY=1 for the toy scale the benchmark's own tests use.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

TOY = os.environ.get("POSBENCH_TOY") == "1"
SCALE = "toy" if TOY else "full"
HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "golden.json"
# The testbed seed is `--seed` modulo this, so every run is checked
# against a digest recorded in golden.json.
GOLDEN_SEEDS = 16
# Fewest measured workflows per run, and fewest set-up samples.
MIN_REPS = 3
SETUP_SAMPLES = 25
# No new workflow starts after this many seconds of a run.
MAX_RUN_SECS = 120.0
# Flags of `pos run` per campaign workload: pos through two lanes (the
# parallel driver), vpos through the sequential driver, the only one the
# CLI offers it.
TESTBED_ARGS = {
    "case_study_pos": ["--testbed", "pos", "--lanes", "2"],
    "case_study_vpos": ["--testbed", "vpos"],
}
WORKLOADS = tuple(TESTBED_ARGS)
# The files of each run the golden digest covers.
DIGEST_FILES = ("loadgen_measurement.log", "loop-params.yml")


class BenchError(Exception):
    """A usage, build or harness error: no result is printed."""


# ---------------------------------------------------------------- build


def build(root):
    """Builds `pos` and `posbench` in release mode; returns their paths."""
    if not (root / "Cargo.toml").is_file() or not (root / "src" / "bin" / "pos.rs").is_file():
        raise BenchError(f"{root} is not the root of a pos checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, what in ((root / "Cargo.toml", ["--bin", "pos"]), (HERE / "Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest), *what]
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "pos", target / "release" / "posbench"


# ------------------------------------------------------- process helpers


def run_quiet(argv, cwd):
    """Runs a command to completion; returns (exit code, stdout)."""
    p = subprocess.run([str(a) for a in argv], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
    return p.returncode, p.stdout


def launch(argv, cwd, stop_after_first_line=False):
    """Starts `argv` and reads its stdout to EOF (`pos` panics when its
    stdout pipe closes early). Returns seconds to the first stdout line,
    seconds to exit, exit code, stdout lines and the child's peak RSS in
    MB. With `stop_after_first_line` the child is killed at its first
    line, after which its stdout is still drained and the child reaped."""
    err_path = Path(cwd) / f"stderr-{time.monotonic_ns()}.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        first = None
        lines = []
        try:
            for raw in proc.stdout:
                if first is None:
                    first = time.perf_counter() - t0
                    if stop_after_first_line:
                        proc.send_signal(signal.SIGKILL)
                lines.append(raw.decode(errors="replace").rstrip("\n"))
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    done = time.perf_counter() - t0
    if proc.returncode != 0 and not stop_after_first_line:
        sys.stderr.write(err_path.read_text(errors="replace"))
    return {
        "first_line_s": first if first is not None else done,
        "exit_s": done,
        "code": proc.returncode,
        "lines": lines,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


# ------------------------------------------------------------ trees


def run_dirs(tree):
    return sorted(p for p in Path(tree).iterdir() if p.is_dir() and p.name.startswith("run-"))


def golden_digest(tree):
    """SHA-256 over each run's measurement log and loop parameters, in run
    order: `<run>/<file> NUL <length> NUL <bytes>` per file."""
    h = hashlib.sha256()
    for run in run_dirs(tree):
        for name in DIGEST_FILES:
            data = (run / name).read_bytes()
            h.update(f"{run.name}/{name}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


TX_LINE = re.compile(r"\] TX: (\d+) packets with \d+ bytes \(incl\. CRC\), (\d+) dropped at NIC")


def attempted_packets(tree):
    """Packets the generator attempted (sent + dropped at its NIC), summed
    over the tree's measurement logs."""
    total = 0
    for run in run_dirs(tree):
        m = TX_LINE.search((run / "loadgen_measurement.log").read_text())
        if m:
            total += int(m.group(1)) + int(m.group(2))
    return total


def load_golden():
    if GOLDEN_FILE.is_file():
        return json.loads(GOLDEN_FILE.read_text()).get(SCALE, {})
    return {}


class Checks:
    """Counts attempted and failed operations and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"posbench: check failed: {what}", file=sys.stderr)
        return ok


def check_tree(pos, tree, expected, checks, cwd, digest=True):
    """`pos fsck` must be clean and, with `digest`, the golden digest must
    match."""
    code, out = run_quiet([pos, "fsck", tree], cwd)
    checks.check(code == 0 and "status: clean" in out, f"pos fsck {tree} not clean")
    if not digest:
        return
    digest = golden_digest(tree)
    checks.check(expected is not None, f"no golden digest recorded for {tree}")
    checks.check(expected is None or digest == expected, f"{tree}: digest {digest} != golden {expected}")


# ------------------------------------------------------ campaign workloads


def scaffold(pos, work, toy=TOY):
    """`pos init`, then the sweep's 1 s runs (toy: 2 × 2 points, 100 ms)."""
    exp = work / "exp"
    code, _ = run_quiet([pos, "init", exp], work)
    if code != 0:
        raise BenchError("pos init failed")
    gv = exp / "global-variables.yml"
    text = gv.read_text()
    if "run_secs: 10\n" not in text:
        raise BenchError(f"unexpected {gv}")
    gv.write_text(text.replace("run_secs: 10\n", f"run_secs: {0.1 if toy else 1}\n"))
    if toy:
        (exp / "loop-variables.yml").write_text("pkt_rate:\n- 10000\n- 300000\npkt_sz:\n- 64\n- 1500\n")
    return exp


def run_argv(pos, exp, workload, seed, rep_dir):
    rep_dir.mkdir(parents=True)
    return [pos, "run", exp, "--results", rep_dir / "results", "--seed", seed, *TESTBED_ARGS[workload]]


def run_campaign(pos, exp, workload, seed, rep_dir):
    """`pos run`, read to EOF. Returns the launch record and the tree."""
    r = launch(run_argv(pos, exp, workload, seed, rep_dir), rep_dir)
    tree = next((l.split(": ", 1)[1] for l in r["lines"] if l.startswith("result tree: ")), None)
    r["tree"] = rep_dir / tree if tree else None
    return r


def workflow(pos, exp, workload, seed, rep_dir, checks):
    """One measured workflow: `pos run`, `pos eval`, `pos publish`."""
    t0 = time.perf_counter()
    r = run_campaign(pos, exp, workload, seed, rep_dir)
    ok_runs = sum(1 for l in r["lines"] if re.match(r"\s+run \d+/\d+ ok$", l))
    total = len(run_dirs(r["tree"])) if r["tree"] else 0
    checks.add(total, total - ok_runs)
    checks.check(r["code"] == 0 and r["tree"] is not None and total > 0, f"pos run exited {r['code']}")
    if r["tree"] is None:
        return None
    code, _ = run_quiet([pos, "eval", r["tree"], "--out", rep_dir / "figures"], rep_dir)
    checks.check(code == 0, "pos eval failed")
    code, out = run_quiet([pos, "publish", r["tree"], "--out", rep_dir / "release"], rep_dir)
    checks.check(code == 0 and out.startswith("published "), "pos publish failed")
    r["wall_s"] = time.perf_counter() - t0
    r["packets"] = attempted_packets(r["tree"])
    return r


def setup_sample(pos, exp, workload, seed, rep_dir):
    """Launch-to-first-line of a `pos run` that is stopped right there."""
    argv = run_argv(pos, exp, workload, seed, rep_dir)
    return launch(argv, rep_dir, stop_after_first_line=True)["first_line_s"]


def campaign_metrics(reps, setups, checks):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "workflow_wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "sim_pkts_per_s": (statistics.median(r["packets"] / (r["exit_s"] - r["first_line_s"]) for r in reps), "1/s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
        "ok_ratio": (1.0 - checks.failed / max(1, checks.attempted), "ratio"),
    }


def campaign_workload(pos, work, workload, seed, seconds, golden, checks):
    """Workflows for `seconds` (at least MIN_REPS), then set-up-only
    launches up to SETUP_SAMPLES. Trees stay until the run ends: deleting
    them between workflows would put the file system's block-discard work
    inside the measurement."""
    exp = scaffold(pos, work)
    expected = golden.get(workload, {}).get(str(seed))
    reps, setups = [], []
    t0 = time.perf_counter()
    while len(reps) < MIN_REPS or (time.perf_counter() - t0 < seconds and time.perf_counter() - t0 < MAX_RUN_SECS):
        rep_dir = work / f"rep-{len(reps)}"
        r = workflow(pos, exp, workload, seed, rep_dir, checks)
        if r is None:
            break
        check_tree(pos, r["tree"], expected, checks, rep_dir)
        reps.append(r)
        setups.append(r["first_line_s"])
    for i in range(SETUP_SAMPLES - len(setups)):
        setups.append(setup_sample(pos, exp, workload, seed, work / f"setup-{i}"))
    if not reps:
        raise BenchError(f"{workload}: no workflow completed")
    return campaign_metrics(reps, setups, checks)


# ------------------------------------------------------------ traced run


def harness(posbench, args, cwd):
    """Runs a posbench subcommand; returns its JSON report."""
    code, out = run_quiet([posbench, *args], cwd)
    if code != 0 or not out.strip():
        raise BenchError(f"posbench {args[0]} failed with exit code {code}")
    return json.loads(out.strip().splitlines()[-1])


def traced_workload(pos, posbench, work, workload, seed, golden, checks):
    """Per-layer metrics from the harness, whose result trees are then held
    to `pos fsck` and, all but vpos at two lanes, to the golden digest."""
    expected = golden.get(workload, {}).get(str(seed))
    d = harness(posbench, ["trace", "--workload", workload, "--seed", seed, "--work", "w"], work)
    checks.add(int(d["attempted"]), int(d["failed"]))
    for tree in d["golden_trees"]:
        check_tree(pos, work / tree, expected, checks, work)
    for tree in d["fsck_trees"]:
        check_tree(pos, work / tree, expected, checks, work, digest=False)
    return {k: (v["value"], v["unit"]) for k, v in d["metrics"].items()}


# ------------------------------------------------------------ environment


def fingerprint(root, work):
    """nproc, CPU model, kernel, result-root filesystem, build profile and
    source identity."""
    cpu = "unknown"
    try:
        cpu = next(
            l.split(":", 1)[1].strip() for l in Path("/proc/cpuinfo").read_text().splitlines() if l.startswith("model name")
        )
    except (OSError, StopIteration):
        pass
    fs, best = "unknown", -1
    real = str(Path(work).resolve())
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            parts = line.split()
            mnt = parts[1]
            if (real == mnt or real.startswith(mnt.rstrip("/") + "/")) and len(mnt) > best:
                fs, best = parts[2], len(mnt)
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    h = hashlib.sha256()
    for pattern in ("Cargo.toml", "Cargo.lock", "src/**/*.rs", "crates/**/*.rs", "crates/**/Cargo.toml"):
        for p in sorted(root.glob(pattern)):
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "result_root_fs": fs,
        "build_profile": "release (lto=thin)",
        "git_commit": commit or "unavailable (not a git checkout)",
        "source_sha256": h.hexdigest(),
        "scale": SCALE,
    }


# ------------------------------------------------------------------ main


def expected_metrics(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def record_golden(root, pos):
    """Runs each workload's campaign once per golden seed and records the
    digests of the resulting trees (both scales)."""
    out = {}
    for scale in ("toy", "full"):
        out[scale] = {w: {} for w in WORKLOADS}
        for seed in range(GOLDEN_SEEDS):
            work = root / ".bench_work" / f"golden-{scale}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            exp = scaffold(pos, work, toy=scale == "toy")
            for w in WORKLOADS:
                r = run_campaign(pos, exp, w, seed, work / w)
                if r["code"] != 0 or r["tree"] is None:
                    raise BenchError(f"{w} seed {seed} failed")
                out[scale][w][str(seed)] = golden_digest(r["tree"])
            shutil.rmtree(work)
            print(f"golden {scale} seed {seed} recorded", file=sys.stderr)
    GOLDEN_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        pos, posbench = build(root)
        if args.record_golden:
            record_golden(root, pos)
            return 0
        if args.workload is None:
            raise BenchError("--workload is required")
        want = expected_metrics(args.trace)
        golden = load_golden()
        seed = args.seed % GOLDEN_SEEDS
        work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        checks = Checks()
        try:
            env = fingerprint(root, work)
            if args.trace:
                metrics = traced_workload(pos, posbench, work, args.workload, seed, golden, checks)
            else:
                metrics = campaign_workload(pos, work, args.workload, seed, args.seconds, golden, checks)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        print(f"posbench: {e}", file=sys.stderr)
        return 2
    missing = sorted(set(want) - set(metrics))
    wrong_unit = sorted(k for k in want if k in metrics and metrics[k][1] != want[k])
    if missing or wrong_unit:
        print(f"posbench: metrics missing {missing}, wrong unit {wrong_unit}", file=sys.stderr)
        return 2
    correct = checks.failed == 0
    print("posbench-env " + json.dumps(env, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in want.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
