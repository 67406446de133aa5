"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition so every repetition
has its own peak-memory figure and no state carries over.  It prints a
single JSON object on its last line of output.

    python3 lens/rep.py --workload surge-flagship --seed 1 --traced 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".lens_out")


def expected_digest(workload: str, seed: int) -> str | None:
    """The recorded digest that applies to (workload, seed), if any."""
    from lens.workloads import DEFAULT_SEEDS
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        return None
    default = DEFAULT_SEEDS[workload]
    if default is not None and seed != default:
        return None
    return recorded.get(workload)


def knobs() -> dict:
    """The ``VEIL_*`` settings in effect for this process."""
    from repro import knobs as program_knobs
    return {
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("VEIL_")},
        "warp": program_knobs.warp_enabled(),
        "surge_check": program_knobs.surge_check_enabled(),
        "tlb": os.environ.get("VEIL_TLB", "1") != "0",
    }


def run(workload: str, seed: int, traced: bool, out_dir: str) -> dict:
    """Run and check one repetition; the result as a JSON-ready dict."""
    from lens.gauge import HostGauge
    from lens.layers import SpanRecorder, layer_metrics
    from lens.patching import leftover_wrappers
    from lens.workloads import run_workload

    # A traced repetition runs without the gauge: its slices would land
    # inside layer spans.  Its times are as measured.
    recorder = SpanRecorder() if traced else None
    gauge = None if traced else HostGauge()
    outcome = run_workload(workload, seed, recorder=recorder, gauge=gauge,
                           expected_digest=expected_digest(workload, seed),
                           out_dir=out_dir)
    leftover = leftover_wrappers()
    if leftover:
        outcome.violate(f"wrappers left installed: {leftover[:3]}")
    doc = outcome.as_doc(traced)
    doc["knobs"] = knobs()
    if recorder is not None:
        layers = layer_metrics(recorder)
        attributed = sum(v for k, v in layers.items()
                         if k.endswith(".self_s"))
        layers["bench.traced_s"] = outcome.total_s
        layers["bench.unattributed_s"] = outcome.total_s - attributed
        doc["layers"] = layers
        doc["spans"] = recorder.span_count
        os.makedirs(out_dir, exist_ok=True)
        recorder.write_spans(
            os.path.join(out_dir, f"{workload}-seed{seed}.spans.json"),
            {"workload": workload, "seed": seed,
             "clock": "perf_counter_ns"})
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        doc = run(args.workload, args.seed, bool(args.traced), OUT_DIR)
    except Exception:  # the parent records the traceback as a failure
        doc = {"workload": args.workload, "seed": args.seed,
               "error": traceback.format_exc()}
        print(json.dumps(doc))
        return 1
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
