"""One benchmark instance in a fresh interpreter: set up, run once, check.

Run by ``run.py``, never imported by it, so that every timed run starts with
empty process-wide caches.  Prints one JSON object on its last line:

- ``ready``: ``time.monotonic()`` when the inputs were ready; the parent,
  which noted the same clock before starting this process, turns it into
  the set-up time
- ``setup_probe_s``: the mean probe time right after set-up (see probe.py)
- ``wall_s``, ``probe_s``, ``cells``, ``peak_rss_mb``, ``digest`` and
  ``checks`` for a timed instance, plus ``layers`` (per-layer metrics) when
  traced

Usage: python3 bench/instance.py --workload NAME --seed N --workdir DIR
       [--setup-only | --trace-to SPANS.json]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from probe import HostProbe, probe_now  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MUL_RATE_SECONDS = 0.25


def gf2e_mul_rate(fields: dict, seed: int) -> float:
    """Multiplies per second in the largest GF(2^e) the run used, or 0."""
    field = fields[max(fields)] if fields else None
    if field is None or getattr(field, "p", None) != 2 or field.e < 2:
        return 0.0
    rng = random.Random(seed)
    xs = [rng.randrange(1, field.size) for _ in range(512)]
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    mul = field.mul
    count = 0
    start = time.perf_counter()
    while True:
        for a, b in pairs:
            mul(a, b)
        count += len(pairs)
        elapsed = time.perf_counter() - start
        if elapsed >= MUL_RATE_SECONDS:
            return count / elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-to", type=Path, metavar="SPANS_JSON")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        inputs = workload.prepare(args.seed, Path(tmp))
        ready = time.monotonic()
        setup_probe_s = probe_now()
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_probe_s": setup_probe_s}))
            return 0
        tracer = None
        probe = HostProbe()
        if args.trace_to is not None:
            tracer = Tracer()
            probe = HostProbe(on_sample=tracer.add_probe)
            tracer.install()
        try:
            with probe:
                start = time.perf_counter()
                out = workload.run(inputs)
                region_s = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()

    record = {
        "ready": ready,
        "setup_probe_s": setup_probe_s,
        # the workload's own time: the timed region minus the probe's
        "wall_s": region_s - sum(probe.samples),
        "probe_s": statistics.fmean(probe.samples),
        "cells": workload.cells(out),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": workload.digest(out),
        "checks": workload.checks(out),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, region_s, gf2e_mul_rate(tracer.fields, args.seed))
        tracer.write(args.trace_to)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
