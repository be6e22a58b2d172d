#!/usr/bin/env python3
"""Fixed-input benchmark of the divm engine (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--save DIR]

builds the engine and the measuring executable from source, generates the
seeded input, measures for S seconds, checks every view against the
reference interpreter and that no worker process or socket is left
behind, and prints one JSON line last:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Other commands:
    python3 perfbench/run.py selftest
    python3 perfbench/run.py series --out DIR [--roots ROOT ...] [--seeds 1-10]
                                    [--workloads W,...]
    python3 perfbench/run.py summary DIR
    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import stat
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
PROFILE = "release"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------- build


def build_dir(root):
    return os.path.join(root, ".bench_build")


def run_dir(root):
    """Inputs, private TMPDIRs and span files of runs."""
    return os.path.join(root, ".bench_run")


def exes(root):
    d = os.path.join(build_dir(root), "default")
    return (os.path.join(d, "perfbench", "perfbench.exe"),
            os.path.join(d, "bin", "divm_node.exe"))


def build(root):
    """Build the measuring executable and the worker binary from source."""
    for need in ("dune-project", "lib", os.path.join("bin", "divm_node.ml")):
        if not os.path.exists(os.path.join(root, need)):
            log(f"perfbench: {need} not found under {root}: nothing to build")
            sys.exit(2)
    # Keep every build output, compiler temporaries included, inside the
    # checkout.
    tmp = os.path.join(run_dir(root), "tmp", "build")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = ["dune", "build", "--root", ".", "--profile", PROFILE,
           "--build-dir", ".bench_build",
           "./perfbench/perfbench.exe", "./bin/divm_node.exe"]
    try:
        p = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        log("perfbench: dune not found")
        sys.exit(3)
    if p.returncode != 0:
        log(p.stdout + p.stderr)
        log("perfbench: build failed")
        sys.exit(3)


# ---------------------------------------------------------------- context


def source_digest(root):
    """Hash of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        p = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return p.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def cpu_times():
    """Aggregate jiffies of /proc/stat: (steal, total)."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def context(root, args, cpu0, cpu1):
    steal, total = cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "build_profile": PROFILE,
        "commit": commit(root),
        "source_digest": source_digest(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        # Share of CPU time the hypervisor gave to others during the run:
        # a run on a disturbed host shows here.
        "host_steal_share": steal / total if total else 0.0,
    }


# ---------------------------------------------------------------- hygiene


def sockets_under(d):
    out = []
    for dirpath, _, files in os.walk(d):
        for f in files:
            p = os.path.join(dirpath, f)
            try:
                if stat.S_ISSOCK(os.lstat(p).st_mode):
                    out.append(p)
            except OSError:
                pass
    return out


def processes_mentioning(text):
    """Pids whose command line mentions [text] (worker sockets live in the
    run's private directory, so leaked workers name it)."""
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            with open(f"/proc/{d}/cmdline", "rb") as f:
                if text.encode() in f.read():
                    pids.append(int(d))
        except OSError:
            pass
    return pids


def reap(pids):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.time() + 10
    while time.time() < deadline and any(os.path.exists(f"/proc/{p}") for p in pids):
        time.sleep(0.05)


# ---------------------------------------------------------------- one run


def run_once(args):
    root = ROOT
    build(root)
    bench_exe, node_exe = exes(root)
    private = os.path.join(run_dir(root), "tmp",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(private, ignore_errors=True)
    os.makedirs(private)
    env = dict(os.environ, TMPDIR=private, DIVM_NODE_EXE=node_exe)
    started = time.time()
    cpu0 = cpu_times()
    input_file = os.path.join(private, "input.bin")

    def call(cmd, timeout, cpus=None):
        # Own process group, so a timeout takes its children down with it.
        # [cpus] confines the process, and the workers it spawns, to that
        # many CPUs.
        pin = None
        if cpus:
            allowed = set(sorted(os.sched_getaffinity(0))[:cpus])
            pin = lambda: os.sched_setaffinity(0, allowed)
        p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True, preexec_fn=pin)
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            log(f"perfbench: {cmd[1]} timed out")
            reap(processes_mentioning(private))
            sys.exit(4)
        sys.stderr.write(err)
        if p.returncode != 0:
            log(out)
            log(f"perfbench: {cmd[1]} exited with {p.returncode}")
            reap(processes_mentioning(private))
            sys.exit(4)
        return out

    call([bench_exe, "gen", "--workload", args.workload, "--seed",
          str(args.seed), "--out", input_file], RUN_TIMEOUT_S)
    cpus = int(call([bench_exe, "cpus", "--workload", args.workload,
                     "--trace", str(args.trace)], RUN_TIMEOUT_S))
    cmd = [bench_exe, "run", "--workload", args.workload, "--input", input_file,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(run_dir(root), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}.seed{args.seed}.json")]
    out = call(cmd, RUN_TIMEOUT_S - (time.time() - started), cpus)
    cpu1 = cpu_times()
    lines = [l for l in out.splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if not lines:
        log(out)
        log("perfbench: no result from the measuring process")
        sys.exit(4)
    res = json.loads(lines[-1].split(" ", 1)[1])

    errors = list(res["errors"])
    leaked = [p for p in res["worker_pids"] if os.path.exists(f"/proc/{p}")]
    leaked += [p for p in processes_mentioning(private) if p not in leaked]
    if leaked:
        errors.append(f"worker processes left behind: {leaked}")
        reap(leaked)
    socks = sockets_under(private)
    if socks:
        errors.append(f"sockets left behind: {socks}")
    shutil.rmtree(private, ignore_errors=True)

    record = dict(res)
    for k in ("correct", "attempted", "failed", "metrics"):
        del record[k]
    record.update({
        "context": dict(context(root, args, cpu0, cpu1), run_cpus=cpus),
        "errors": errors,
        "result": {
            "correct": res["correct"] and not errors,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": res["metrics"],
        },
    })
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
        with open(os.path.join(args.save, name), "w") as f:
            json.dump(record, f, indent=1)
    for e in errors:
        log(f"perfbench: error: {e}")
    print("context " + json.dumps({k: record[k] for k in
                                   ("context", "samples", "input", "host")}))
    print(json.dumps(record["result"]))


# ---------------------------------------------------------------- statistics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_set(d):
    """{(workload, seed): result} of the saved untraced runs in [d]."""
    out = {}
    for f in sorted(os.listdir(d)):
        if not f.endswith(".trace0.json"):
            continue
        with open(os.path.join(d, f)) as fh:
            r = json.load(fh)
        out[(r["workload"], r["context"]["seed"])] = r["result"]
    return out


def values(runs, workload, metric):
    return [r["metrics"][metric]["value"] for (w, _), r in sorted(runs.items())
            if w == workload and metric in r["metrics"]]


def summary(args):
    """Median, quartiles and spread (IQR / median) per workload x metric."""
    bench = load_benchmark()
    runs = load_set(args.dir)
    ok = True
    print(f"{'workload':16} {'metric':14} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for w in bench["workloads"]:
        bad = [k for (wl, k), r in runs.items() if wl == w["name"]
               and (not r["correct"] or r["failed"])]
        if bad:
            ok = False
            print(f"{w['name']}: incorrect or failed runs at seeds {bad}")
        for m in bench["end_to_end"]:
            v = values(runs, w["name"], m["name"])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  > bound/3"
            print(f"{w['name']:16} {m['name']:14} {len(v):3d} {med:12.4f} "
                  f"{q1:12.4f} {q3:12.4f} {spread:7.3f} {m['bound']:6.2f}{flag}")
    return 0 if ok else 1


def verdict(parent, change, pairs, better, bound):
    """The choosing-metrics section 8 rules, with the benchmark's bound."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    n = len(pairs)
    worse = -sign * (cm - pm) / pm if pm else 0.0
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if n >= 10 and wins >= 0.9 * n and sign * (cm - pm) > (p3 - p1):
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse > bound:
        v = "regressed"
    else:
        v = "no worse"
    return (p1, pm, p3), (c1, cm, c3), wins, n, worse, v


def compare(args):
    bench = load_benchmark()
    parent, change = load_set(args.parent), load_set(args.change)
    print(f"{'workload':16} {'metric':14} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>7} {'worse':>7}  verdict")
    regressed = False
    for w in bench["workloads"]:
        seeds = sorted(k for (wl, k) in parent if wl == w["name"]
                       and (wl, k) in change)
        for m in bench["end_to_end"]:
            pv = values(parent, w["name"], m["name"])
            cv = values(change, w["name"], m["name"])
            if not pv or not cv:
                continue
            pairs = [(parent[(w["name"], s)]["metrics"][m["name"]]["value"],
                      change[(w["name"], s)]["metrics"][m["name"]]["value"])
                     for s in seeds]
            (p1, pm, p3), (c1, cm, c3), wins, n, worse, v = verdict(
                pv, cv, pairs, m["better"], m["bound"])
            regressed |= v == "regressed"
            print(f"{w['name']:16} {m['name']:14} "
                  f"{pm:12.4f} [{p1:9.4f}, {p3:9.4f}] "
                  f"{cm:12.4f} [{c1:9.4f}, {c3:9.4f}] "
                  f"{wins:3d}/{n:<3d} {100 * worse:+6.1f}%  {v}")
    return 1 if regressed else 0


def seed_range(s):
    if "-" in s:
        a, b = s.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in s.split(",")]


def series(args):
    """Runs every seed x workload on each root, alternating which root runs
    first from seed to seed, saving root i's results under OUT/i."""
    bench = load_benchmark()
    roots = args.roots or [ROOT]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    for n, seed in enumerate(seed_range(args.seeds)):
        for w in workloads:
            order = list(range(len(roots)))
            if n % 2:
                order.reverse()
            for i in order:
                out = os.path.join(os.path.abspath(args.out), str(i))
                cmd = [sys.executable, os.path.join(roots[i], "perfbench", "run.py"),
                       "--workload", w, "--seed", str(seed), "--seconds",
                       str(bench["run_seconds"]), "--trace", "0", "--save", out]
                p = subprocess.run(cmd, cwd=roots[i], capture_output=True, text=True)
                last = p.stdout.strip().splitlines()[-1:] or ["(no result)"]
                log(f"root {i} {w} seed {seed}: exit {p.returncode} {last[0][:160]}")
    return 0


def selftest(_args):
    build(ROOT)
    bench_exe, node_exe = exes(ROOT)
    private = os.path.join(run_dir(ROOT), "tmp", f"selftest-{os.getpid()}")
    os.makedirs(private, exist_ok=True)
    env = dict(os.environ, TMPDIR=private, DIVM_NODE_EXE=node_exe)
    p = subprocess.run([bench_exe, "selftest"], env=env,
                       timeout=RUN_TIMEOUT_S)
    socks = sockets_under(private)
    shutil.rmtree(private, ignore_errors=True)
    if socks:
        log(f"selftest: sockets left behind: {socks}")
    return 1 if p.returncode or socks else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("selftest", "series", "summary", "compare"):
        ap = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "series":
            ap.add_argument("--out", required=True)
            ap.add_argument("--roots", nargs="+")
            ap.add_argument("--seeds", default="1-10")
            ap.add_argument("--workloads")
        elif argv[0] == "summary":
            ap.add_argument("dir")
        elif argv[0] == "compare":
            ap.add_argument("parent")
            ap.add_argument("change")
        args = ap.parse_args(argv[1:])
        sys.exit({"selftest": selftest, "series": series, "summary": summary,
                  "compare": compare}[argv[0]](args))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save", help="directory to keep the full run record in")
    args = ap.parse_args(argv)
    if args.workload not in [w["name"] for w in load_benchmark()["workloads"]]:
        log(f"perfbench: unknown workload {args.workload}")
        sys.exit(2)
    run_once(args)


if __name__ == "__main__":
    main()
