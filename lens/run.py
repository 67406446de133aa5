"""veil-lens: the repository benchmark.

Runs one workload for about ``--seconds`` seconds as a series of
repetitions, each in a fresh process (``lens/rep.py``), checks every
repetition's modeled outputs and fleet invariants, and prints a report
followed by one JSON result line.

    python3 lens/run.py --workload paper-figs --seed 1 --seconds 35 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced repetitions,
scaled to the host speed ``lens/gauge.py`` measures during each one.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer table of the median traced repetition plus the tracing
overhead.

Exit status: 0 when every check passed, 1 when a check failed, 2 when
the program to measure is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".lens_out")
REP = os.path.join(HERE, "rep.py")

#: Repetitions a ``--trace 0`` run makes even when one takes long.
MIN_REPS = 3
#: Hard wall-clock budget for one benchmark invocation.
BUDGET_S = 170.0
#: No new repetition starts with less budget left than this: the
#: slowest one (a traced ``paper-figs``) takes under a fifth of it.
REP_RESERVE_S = 45.0

#: End-to-end metrics: name -> unit.
END_TO_END = {"run_s": "s", "setup_s": "s", "op_us.p50": "us",
              "op_us.p95": "us", "peak_rss_mb": "MB"}
#: Operation-time percentiles.  The 99th is printed but not in the
#: result line: on ``surge-traced`` it falls where the program's
#: collection pauses start, so it jumps between runs (see lens/README.md).
OP_PERCENTILES = (("op_us.p50", 0.50), ("op_us.p95", 0.95),
                  ("op_us.p99", 0.99))

#: Per-layer metric units by suffix (anything else is a count).
_UNIT_SUFFIX = (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes"),
                ("_cyc", "cycles"), ("_overhead", "ratio"),
                ("failed_frac", "ratio"))


def layer_unit(name: str) -> str:
    """The unit of one per-layer metric."""
    for suffix, unit in _UNIT_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


# -- environment and host -----------------------------------------------------

def pinned_env() -> tuple[dict, list]:
    """Child environment with every ``VEIL_*`` knob at its default.

    Returns the environment and the names removed from the caller's.
    """
    env = dict(os.environ)
    cleared = sorted(k for k in env
                     if k.startswith("VEIL_") or k == "PYTHONPATH")
    for name in cleared:
        del env[name]
    env["PYTHONHASHSEED"] = "0"
    return env, cleared


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """SHA-256 over the program's Python sources (names and bytes)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC,
                                                             "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def host_block(cleared: list) -> dict:
    """Where and how the numbers were taken."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_rev": git_revision(),
        "src_sha256": source_digest(),
        "env_cleared": cleared,
        "pythonhashseed": "0",
    }


# -- repetitions --------------------------------------------------------------

def run_rep(workload: str, seed: int, traced: bool, env: dict,
            timeout: float) -> dict:
    """One repetition in a fresh process; its JSON result."""
    cmd = [sys.executable, REP, "--workload", workload, "--seed",
           str(seed), "--traced", str(int(traced))]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return doc


def collect(workload: str, seed: int, seconds: float, trace: bool,
            env: dict) -> list[dict]:
    """Repeat the workload until ``seconds`` have passed."""
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        untraced = sum(1 for r in reps if not r.get("traced"))
        traced = len(reps) - untraced
        if trace:
            done = untraced >= 1 and traced >= 1
            want_traced = traced < untraced
        else:
            done = len(reps) >= MIN_REPS
            want_traced = False
        if done and elapsed >= seconds:
            break
        remaining = BUDGET_S - elapsed
        if done and remaining < REP_RESERVE_S:
            break
        doc = run_rep(workload, seed, want_traced, env,
                      timeout=max(5.0, remaining))
        doc.setdefault("traced", want_traced)
        reps.append(doc)
        if "error" in doc:
            break
    return reps


# -- summary ------------------------------------------------------------------

def summarize(reps: list[dict], trace: bool) -> dict:
    """Metrics, counts and verdict for one benchmark invocation."""
    from lens.layers import percentile

    errors = [r["error"] for r in reps if "error" in r]
    good = [r for r in reps if "error" not in r]
    attempted = sum(r["attempted"] for r in good) + len(errors)
    failed = sum(r["failed"] for r in good) + len(errors)
    problems = list(errors)
    for rep in good:
        problems.extend(rep["violations"])
    digests = sorted({r["digest"] for r in good})
    op_counts = sorted({len(r["op_ns"]) for r in good if not r["traced"]})
    if len(digests) > 1 or len(op_counts) > 1:
        problems.append(f"same-seed repetitions disagree: {digests}, "
                        f"operations {op_counts}")
        failed = attempted
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    summary = {"attempted": max(1, attempted), "failed": failed,
               "problems": problems, "digests": digests,
               "reps": len(reps), "metrics": {}, "samples": {}}
    if not untraced or (trace and not traced):
        summary["correct"] = False
        summary["problems"].append("no complete repetition")
        return summary
    metrics = summary["metrics"]
    if trace:
        ordered = sorted(traced, key=lambda r: r["total_s"])
        chosen = ordered[(len(ordered) - 1) // 2]
        metrics.update(chosen["layers"])
        # Traced repetitions run without the host gauge, so both sides
        # of the overhead are unscaled.
        traced_run = statistics.median(r["run_raw_s"] for r in traced)
        untraced_run = statistics.median(r["run_raw_s"] for r in untraced)
        metrics["bench.trace_overhead"] = traced_run / untraced_run - 1
        metrics["failed_frac"] = failed / summary["attempted"]
    else:
        # Each repetition's figures are scaled to the reference host
        # speed its gauge measured (lens/gauge.py), and their median is
        # reported: one repetition slowed by a neighbour on a shared host
        # then moves the figure no more than any other repetition does.
        # Every repetition replays the same operations, so an operation's
        # time is its median over the repetitions, and the percentiles
        # are taken over those medians.
        per_op = sorted(statistics.median(times)
                        for times in zip(*(r["op_ns"] for r in untraced)))
        metrics["run_s"] = statistics.median(r["run_s"] for r in untraced)
        metrics["setup_s"] = statistics.median(r["setup_s"]
                                               for r in untraced)
        for name, p in OP_PERCENTILES:
            metrics[name] = percentile(per_op, p) / 1000.0
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"]
                                                   for r in untraced)
        summary["samples"] = {"runs": len(untraced),
                              "ops_per_run": len(per_op)}
        summary["measured"] = {
            "run_s": statistics.median(r["run_raw_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_raw_s"]
                                         for r in untraced),
            "speed": statistics.median(r["slices"]["run"]["speed"]
                                       for r in untraced)}
        summary["failed_frac"] = failed / summary["attempted"]
    summary["knobs"] = untraced[0]["knobs"]
    # Failed operations alone do not make a run incorrect: chaos-mayhem
    # fails a few requests by design.  Every check that fails is a
    # problem and fails operations too.
    summary["correct"] = not problems
    return summary


def result_line(summary: dict, trace: bool) -> dict:
    """The final JSON object."""
    metrics = {}
    for name, value in summary["metrics"].items():
        if not trace and name not in END_TO_END:
            continue
        unit = END_TO_END[name] if not trace else layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def render(args, summary: dict, host: dict) -> str:
    """The human-readable report printed above the result line."""
    from lens.layers import LAYERS

    lines = [f"veil-lens  workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace} "
             f"repetitions={summary['reps']}",
             "host: " + " ".join(f"{k}={v}" for k, v in host.items()
                                 if k != "src_sha256")
             + f" src_sha256={host['src_sha256'][:16]}",
             f"knobs: {summary.get('knobs')}"]
    metrics = summary["metrics"]
    if not args.trace and metrics:
        runs, ops = summary["samples"]["runs"], \
            summary["samples"]["ops_per_run"]
        for name, value in metrics.items():
            unit = END_TO_END.get(name, "us")
            n = f"{ops} ops, each the median of {runs} runs" \
                if name.startswith("op_") else f"{runs} runs"
            note = "" if name in END_TO_END else ", not bounded"
            lines.append(f"  {name:<12} {value:>12.4f} {unit:<3}"
                         f" (n={n}{note})")
        measured = summary["measured"]
        lines.append(f"  unscaled medians: run_s {measured['run_s']:.4f} s,"
                     f" setup_s {measured['setup_s']:.4f} s; host speed "
                     f"{measured['speed']:.3f} of the reference")
        if "failed_frac" in summary:
            lines.append(f"  {'failed_frac':<12} "
                         f"{summary['failed_frac']:>12.6f} ratio "
                         f"({summary['failed']} of {summary['attempted']})")
    elif metrics:
        traced_s = metrics["bench.traced_s"]
        lines.append(f"  {'layer':<8} {'self_s':>9} {'share':>7}  counters")
        attributed = 0.0
        for layer in LAYERS:
            self_s = metrics[f"{layer}.self_s"]
            attributed += self_s
            counters = ", ".join(
                f"{k.split('.', 1)[1]}={_fmt(v)}"
                for k, v in metrics.items()
                if k.startswith(layer + ".") and k != f"{layer}.self_s")
            lines.append(f"  {layer:<8} {self_s:>9.4f} "
                         f"{self_s / traced_s:>7.1%}  {counters}")
        unattributed = metrics["bench.unattributed_s"]
        lines.append(f"  {'(none)':<8} {unattributed:>9.4f} "
                     f"{unattributed / traced_s:>7.1%}  workload code")
        lines.append(f"  sum {attributed + unattributed:.4f} s = traced "
                     f"run {traced_s:.4f} s; trace overhead "
                     f"{metrics['bench.trace_overhead']:+.1%}; failed_frac "
                     f"{metrics['failed_frac']:.6f}")
    digests = ", ".join(d[:16] for d in summary["digests"]) or "none"
    lines.append(f"modeled-output digest: {digests}")
    for problem in summary["problems"][:10]:
        lines.append(f"CHECK FAILED: {problem.strip()[-500:]}")
    lines.append("correct" if summary["correct"] else "INCORRECT")
    return "\n".join(lines)


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="veil-lens: time one workload end to end or by layer")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"veil-lens: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    env, cleared = pinned_env()
    sys.path.insert(0, ROOT)
    from lens.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    host = host_block(cleared)
    reps = collect(args.workload, args.seed, args.seconds,
                   bool(args.trace), env)
    summary = summarize(reps, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        slim = [{k: v for k, v in r.items() if k != "op_ns"} for r in reps]
        json.dump({"host": host, "summary": summary, "repetitions": slim},
                  fh, indent=1, default=str)
    print(render(args, summary, host))
    print(json.dumps(result_line(summary, bool(args.trace))))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
