"""shiftlab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload closure-char0 --seed 0 --seconds 36 --trace 0

Every timed run is a fresh interpreter (``bench/instance.py``), because the
package keeps process-wide caches that an in-process repeat would hit.  For
``--seconds`` seconds the run starts set-up-only interpreters and timed
instances one after another, on one core, and reports medians.

``--trace 0`` reports the end-to-end metrics of untraced instances:

- ``wall_ref_s``: the timed region, from inputs ready to output returned
- ``setup_s``: interpreter start to inputs ready
- ``peak_rss_mb``: the instance's maximum resident set size

The two times are seconds on a reference host (see ``probe.py``): each is
the measured time scaled by a fixed probe loop's reference time over its
mean time in the same process, timed every 20 ms during the run and right
after set-up.  On a shared host identical instances take anywhere from 9
to 15 s; the probe slows in step, so reference seconds hold still where
measured seconds do not.  Printed beside them, unbounded: ``wall_s`` and
``setup_raw_s`` (measured seconds, probe time taken out), ``cells_per_s``
((S, w) cells decided per second of ``wall_s``) and ``failed_ratio``
(failed output checks over checks made).

``--trace 1`` alternates untraced and traced instances and reports the
per-layer metrics of the traced ones (see ``spans.py``), with the tracing
overhead.  Both modes check every output; ``failed`` and ``attempted`` in
the last line count the checks.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it, ``record``,
holds the samples and provenance: git sha, CPU count, Python version, the
``src/`` line count, the seed and the probe's mean time per instance,
which tells host speed apart from program changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import at_reference
from spans import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"

WORKLOAD_NAMES = ("closure-char0", "scan-char2", "oracle-symbolic")
END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Layer times that read 0 on a workload that never reaches the layer.  The
# last line carries only metrics that every workload measures, so these are
# printed and recorded but not listed in BENCHMARK.json.
WORKLOAD_SPECIFIC_TIMES = (
    "field.gf_extension.s",
    "field.matrix_rank.s",
    "field.mul_rate.gf2e",
    "shiftgraph.node_expand_ms",
    "shiftgraph.build.self_s",
    "shiftgraph.contract.s",
    "shiftgraph.is_acyclic.s",
    "shiftgraph.export.s",
    "topology.shift_complex.s",
    "topology.shift_complex.self_s",
    "topology.betti_numbers.s",
    "combstruct.complex_from_layers.s",
)
PER_LAYER_UNITS = {
    **{n: u for n, u in LAYER_UNITS.items() if n not in WORKLOAD_SPECIFIC_TIMES},
    "trace.overhead_ratio": "ratio",
}
SETUPS_PER_INSTANCE = 2
# A run must end within 180 s; no instance may run past this.
HARD_LIMIT_S = 170.0


class InstanceError(RuntimeError):
    """An instance crashed, timed out or printed no result."""


def src_line_count() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def child_env() -> dict[str, str]:
    """The environment minus what would override the workload's own seed.

    ``PYTHONHASHSEED`` is dropped too, so every instance hashes differently
    and an output that depends on hash order fails the digest check.
    """
    env = dict(os.environ)
    env.pop("SHIFTLAB_SEED", None)
    env.pop("PYTHONHASHSEED", None)
    return env


def run_instance(workload: str, seed: int, deadline: float, setup_only=False, spans=None) -> dict:
    """Start one instance, wait for it, and return its record plus ``setup_s``."""
    cmd = [
        sys.executable, str(HERE / "instance.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", str(WORKDIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--trace-to", str(spans)]
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise InstanceError(f"{workload} instance passed the {HARD_LIMIT_S:.0f} s limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise InstanceError(
            f"{workload} instance exited with {done.returncode}:\n{done.stderr.strip()}"
        )
    record = json.loads(lines[-1])
    record["setup_raw_s"] = record["ready"] - spawned
    record["setup_s"] = at_reference(record["setup_raw_s"], record["setup_probe_s"])
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run instances for ``seconds`` and return every sample taken."""
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    WORKDIR.mkdir(exist_ok=True)
    spans_path = WORKDIR / f"{workload}-seed{seed}.spans.json"
    # The first interpreter compiles the bytecode caches; it is not a sample.
    run_instance(workload, seed, hard_deadline, setup_only=True)
    untraced, traced, setups = [], [], []
    while True:
        # set-up samples spread over the run, so they see what the host did
        for _ in range(SETUPS_PER_INSTANCE):
            setups.append(run_instance(workload, seed, hard_deadline, setup_only=True))
        want_traced = trace and len(traced) < len(untraced)
        rec = run_instance(
            workload, seed, hard_deadline, spans=spans_path if want_traced else None
        )
        (traced if want_traced else untraced).append(rec)
        setups.append(rec)
        enough = untraced and (traced or not trace)
        next_kind = traced if trace and len(traced) < len(untraced) else untraced
        next_s = next_kind[-1]["wall_s"] if next_kind else rec["wall_s"]
        next_s += (1 + SETUPS_PER_INSTANCE) * rec["setup_raw_s"]
        if enough and time.monotonic() + next_s > started + seconds:
            break
    return {"untraced": untraced, "traced": traced, "setups": setups}


def wall_ref_s(rec: dict) -> float:
    return at_reference(rec["wall_s"], rec["probe_s"])


def summarize(samples: dict, trace: bool) -> tuple[dict, dict, list[str], list[bool]]:
    """(metrics with units, unbounded figures, failed-check names, check outcomes)."""
    untraced, traced = samples["untraced"], samples["traced"]
    instances = untraced + traced
    outcomes = [ok for rec in instances for _, ok in rec["checks"]]
    failures = sorted({name for rec in instances for name, ok in rec["checks"] if not ok})
    if len(instances) > 1:
        same = len({rec["digest"] for rec in instances}) == 1
        outcomes.append(same)
        if not same:
            failures.append("output identical across instances of the seed")
    figures = {
        "wall_s": {"value": statistics.median(rec["wall_s"] for rec in untraced), "unit": "s"},
        "cells_per_s": {
            "value": statistics.median(rec["cells"] / rec["wall_s"] for rec in untraced),
            "unit": "1/s",
        },
        "setup_raw_s": {
            "value": statistics.median(rec["setup_raw_s"] for rec in samples["setups"]),
            "unit": "s",
        },
        "failed_ratio": {"value": outcomes.count(False) / len(outcomes), "unit": "ratio"},
    }
    if not trace:
        values = {
            "wall_ref_s": statistics.median(wall_ref_s(rec) for rec in untraced),
            "setup_s": statistics.median(rec["setup_s"] for rec in samples["setups"]),
            "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in untraced),
        }
        units = END_TO_END_UNITS
    else:
        values = {
            name: statistics.median(rec["layers"][name] for rec in traced) for name in LAYER_UNITS
        }
        values["trace.overhead_ratio"] = (
            statistics.median(wall_ref_s(rec) for rec in traced)
            / statistics.median(wall_ref_s(rec) for rec in untraced)
            - 1.0
        )
        units = PER_LAYER_UNITS
        for name in WORKLOAD_SPECIFIC_TIMES:
            figures[name] = {"value": values[name], "unit": LAYER_UNITS[name]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return metrics, figures, failures, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shiftlab" / "__init__.py").is_file():
        print(f"bench: no shiftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        samples = measure(args.workload, args.seed, args.seconds, trace)
    except InstanceError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    metrics, figures, failures, outcomes = summarize(samples, trace)
    attempted, failed = len(outcomes), outcomes.count(False)

    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(samples['untraced'])} untraced, {len(samples['traced'])} traced instances, "
        f"{len(samples['setups'])} set-ups, {failed} of {attempted} checks failed"
    )
    for name, m in {**metrics, **figures}.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    for name in failures:
        print(f"  FAILED: {name}")
    instances = samples["untraced"] + samples["traced"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_line_count(),
        "figures": {name: m["value"] for name, m in figures.items()},
        "samples": {
            "wall_s": [rec["wall_s"] for rec in samples["untraced"]],
            "traced_wall_s": [rec["wall_s"] for rec in samples["traced"]],
            "probe_s": [rec["probe_s"] for rec in instances],
            "setup_raw_s": [rec["setup_raw_s"] for rec in samples["setups"]],
            "setup_probe_s": [rec["setup_probe_s"] for rec in samples["setups"]],
        },
        "failed_checks": failures,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
