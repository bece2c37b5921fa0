"""spdesim benchmark: one workload per process, one worker.

Usage, from the root of a checkout:

    python3 spdebench/run.py --workload ladder-explicit --seed 0 --seconds 12 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``ladder-explicit``,
``moments-implicit`` and ``conditions``.  With ``--trace 0`` the run prints
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it prints
the per-layer metrics from a traced run.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details (samples, checks and the
environment).

A run is a sequence of blocks, each one call of the product at a fixed size
on its own seed.  Block 0 warms up at a smaller size and is checked but not
timed.  Then ``SETUP_PROBES`` set-up probes, each a fresh process, are timed,
and blocks run until ``--seconds`` have passed.  The process is pinned to
one CPU, and every time is scaled by how slow that CPU was meanwhile (see
``hostspeed.py``); raw figures and every sample are printed with the
details.  ``ops_per_s`` is the median over the timed blocks and ``setup_s``
the median over the probes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import envcontrol
import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
RECORDED = os.path.join(HERE, "recorded.json")
SPEC = os.path.join(envcontrol.ROOT, "BENCHMARK.json")
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120
TRACED_BLOCKS = 2


def parse_args(argv):
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload_name, workdir, host):
    """Spawn-to-ready time of one fresh process that sets the workload up,
    raw and scaled to the reference host."""
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload_name, probe_dir],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed, elapsed / host.slowdown(started, started + elapsed)


class Timed:
    """A block with its raw and host-scaled throughput."""

    def __init__(self, block, slowdown):
        self.block = block
        self.raw = block.ops / block.seconds
        self.slowdown = slowdown
        self.scaled = self.raw * slowdown


def timed_block(workload, index, seed, host):
    started = time.perf_counter()
    blk = workload.block(index, seed, workload.size)
    return Timed(blk, host.slowdown(started, time.perf_counter()))


def run_blocks(workload, seed, first, seconds, host):
    """Blocks from index ``first`` until ``seconds`` have passed, at least one."""
    blocks = []
    started = time.perf_counter()
    while not blocks or time.perf_counter() - started < seconds:
        blocks.append(timed_block(workload, first + len(blocks), seed, host))
    return blocks


def traced_run(workload, seed, seconds, host):
    """Untraced blocks for ``seconds``, then TRACED_BLOCKS traced blocks.

    Returns the tracer, the untraced and traced blocks, the span range of
    each traced block and the exact counts of each traced block.
    """
    from tracing import Tracer, exact_counts

    tracer = Tracer(reference=workload.reference)
    plain = run_blocks(workload, seed, 1, seconds, host)
    traced, ranges, counts = [], [], []
    for _ in range(TRACED_BLOCKS):
        tracer.install()
        workload.use_triples(tracer.wrap_triple)
        try:
            lo, before, it = tracer.mark()
            tb = timed_block(workload, 1 + len(plain) + len(traced), seed, host)
            hi, after, _ = tracer.mark()
        finally:
            tracer.uninstall()
            workload.use_triples(lambda triple: triple)
        traced.append(tb)
        ranges.append((lo, hi))
        counts.append(exact_counts(tracer, tb.block.attempted, lo, hi,
                                   after - before, tracer.iterations[it:]))
    return tracer, plain, traced, ranges, counts


def summary(timed):
    scaled = [t.scaled for t in timed]
    return {
        "median": statistics.median(scaled),
        "scaled": scaled,
        "raw": [t.raw for t in timed],
        "slowdown": [t.slowdown for t in timed],
    }


def load_recorded():
    if not os.path.isfile(RECORDED):
        return {}
    with open(RECORDED) as fh:
        return json.load(fh)


def emit(values, spec_metrics):
    """Metrics in BENCHMARK.json order; names and units must match the spec."""
    from tracing import valid_metric_name

    out = {}
    for entry in spec_metrics:
        name, unit = entry["name"], entry["unit"]
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        value, got_unit = values.pop(name)
        if got_unit != unit:
            raise ValueError(f"{name}: unit {got_unit} but BENCHMARK.json says {unit}")
        out[name] = {"value": value, "unit": unit}
    if values:
        raise ValueError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not envcontrol.control():
        print("spdesim sources not found under ./src", file=sys.stderr)
        return 2
    hostspeed.pin_to_one_cpu()
    import selftest

    selftest.run()
    from workloads import DEFAULT_SEED, WORKLOADS

    with open(SPEC) as fh:
        spec = json.load(fh)
    workdir = envcontrol.WORKDIR
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](workdir)
    workload.setup()

    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "block_size": workload.size}
    warm = workload.block(0, args.seed, workload.warm_size)
    problems = list(warm.problems)
    if args.seed == DEFAULT_SEED and warm.output is not None:
        recorded = load_recorded()
        if workload.name not in recorded:
            problems.append("no recorded values for the default seed")
        else:
            found, extra = workload.compare(warm, recorded[workload.name])
            problems += found
            detail.update(extra)

    with hostspeed.Sampler() as host:
        if args.trace:
            tracer, untraced, traced, ranges, counts = traced_run(
                workload, args.seed, args.seconds / 2, host
            )
        else:
            setups = [setup_seconds(workload.name, workdir, host)
                      for _ in range(SETUP_PROBES)]
            timed = run_blocks(workload, args.seed, 1, args.seconds, host)
    detail["host_samples"] = len(host.kernel_s)

    if args.trace:
        blocks = [warm] + [t.block for t in untraced + traced]
        if any(c != counts[0] for c in counts):
            problems.append("exact counts differ between blocks of the same code")
        detail["exact_counts_per_block"] = counts
        from tracing import layer_metrics

        values = layer_metrics(tracer, sum(t.block.attempted for t in traced), ranges)
        plain, slow = summary(untraced), summary(traced)
        overhead = 1.0 - slow["median"] / plain["median"]
        detail["untraced"], detail["traced"] = plain, slow
        values["trace.ops_per_s_untraced"] = (plain["median"], "1/s")
        values["trace.ops_per_s_traced"] = (slow["median"], "1/s")
        values["trace.overhead_ops_per_s"] = (plain["median"] * overhead, "1/s")
        values["trace.overhead_share"] = (overhead, "share")
        detail["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer.save(os.path.join(workdir, f"trace-{workload.name}.npz"))
        metrics = emit(values, spec["per_layer"])
    else:
        blocks = [warm] + [t.block for t in timed]
        detail[workload.op_name] = summary(timed)
        setup_scaled = [scaled for _, scaled in setups]
        detail["setup_s"] = {
            "median": statistics.median(setup_scaled),
            "scaled": setup_scaled,
            "raw": [raw for raw, _ in setups],
        }
        attempted = sum(b.attempted for b in blocks)
        failed = sum(b.failed for b in blocks)
        values = {
            "ops_per_s": (detail[workload.op_name]["median"], "1/s"),
            "setup_s": (detail["setup_s"]["median"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_pct": (100.0 * (attempted - failed) / attempted, "%"),
        }
        detail["error_rate"] = failed / attempted
        metrics = emit(values, spec["end_to_end"])

    for blk in blocks[1:]:
        problems += blk.problems
    problems += workload.check_run(blocks)
    detail["blocks"] = len(blocks)
    detail["problems"] = problems
    detail["environment"] = envcontrol.environment()
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(b.attempted for b in blocks),
        "failed": sum(b.failed for b in blocks),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
