"""The three benchmark workloads, their inputs and their output checks.

Every workload runs in blocks, each one call of the product at a fixed
size.  Block ``b`` of a run with seed ``s`` draws its master seed from
``(workload, s, b)`` alone, so the same seed gives the same inputs, and every
block is checked.

Timed blocks have ``size`` paths (or trials per check): 64 paths, the block
size that batched-path stepping targets, and 2,000 trials per check, so
that batching within a call can show.  Block 0 warms up at the smaller
``warm_size`` and is not timed; for the default seed it is also compared
with the values in ``recorded.json`` (written by ``record.py``).
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

DEFAULT_SEED = 0
# relative tolerance for recorded floating-point outputs of block 0
RECORDED_RTOL = 1e-9


def block_seed(workload, seed, index):
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 2


@dataclass
class Block:
    """One timed unit of work: ``ops`` completed operations in ``seconds``."""

    ops: int
    attempted: int
    failed: int
    seconds: float
    output: object
    problems: list = field(default_factory=list)


def _close(a, b, rtol=RECORDED_RTOL):
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def _same(have, want):
    """Equal within RECORDED_RTOL, elementwise for lists."""
    if isinstance(want, list):
        return (
            isinstance(have, list)
            and len(have) == len(want)
            and all(_close(a, b) for a, b in zip(have, want))
        )
    return have is not None and _close(have, want)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


class LadderExplicit:
    """Criterion 07's coupled ladder through ``spdesim converge``, one worker.

    Why: every rung pass recomputes the (32, 4096, 5) reference and the
    explicit per-step overhead dominates, so reference reuse and explicit
    batching show here, while rng, space and coefficients do almost no work.
    The product's own CSV is the checked output.
    """

    name = "ladder-explicit"
    op_name = "paths_per_s"
    size = 64
    warm_size = 2
    rungs = ((4, 64, 2), (8, 256, 3), (16, 1024, 4))
    reference = (32, 4096, 5)

    def __init__(self, workdir):
        self.config_path = os.path.join(workdir, "ladder.cfg")
        self.csv_path = os.path.join(workdir, "ladder.csv")

    def _config_text(self, master_seed, paths):
        rungs = ", ".join(":".join(map(str, r)) for r in self.rungs)
        n, m, l = self.reference
        return (
            f"[space]\nn = {n}\n\n"
            "[coefficients]\nfixture = heat_jump\n\n"
            f"[noise]\nmaster_seed = {master_seed}\n\n"
            f"[scheme]\nkind = explicit\nn = {n}\nm = {m}\nl = {l}\n"
            f"initial = {self.initial}\n\n"
            f"[run]\npaths = {paths}\nworkers = 1\n\n"
            f"[ladder]\nrungs = {rungs}\nreference = {n}:{m}:{l}\n"
        )

    def setup(self):
        from spdesim import cli, config, space

        self.cli = cli
        # criterion 07 starts every rung from the projected 32-mode profile
        self.initial = ", ".join(repr(float(v)) for v in space.smooth_profile(32))
        _write(self.config_path, self._config_text(DEFAULT_SEED, self.size))
        settings = config.load_settings(self.config_path)
        marks = config.build_marks(settings)
        ambient = config.build_space(settings)
        config.build_triple(settings, ambient, marks)
        config.parse_ladder(settings)
        config.build_scheme_config(settings)

    def use_triples(self, wrap):
        """Triples are built inside ``converge``; the tracer wraps them there."""

    def block(self, index, seed, paths):
        from spdesim.schemes import ImplicitStepError

        _write(self.config_path,
               self._config_text(block_seed(self.name, seed, index), paths))
        argv = ["converge", "--config", self.config_path, "--out", self.csv_path,
                "--workers", "1"]
        started = time.perf_counter()
        try:
            status = self.cli.main(argv)
        except ImplicitStepError as exc:
            seconds = time.perf_counter() - started
            return Block(0, paths, paths, seconds, None,
                         [f"block {index}: solver failed: {exc}"])
        seconds = time.perf_counter() - started
        with open(self.csv_path) as fh:
            text = fh.read()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        parsed = [
            {
                "rung": tuple(int(v) for v in row[:3]),
                "estimate": float(row[4]),
                "half_width": float(row[5]),
                "blowups": int(row[6]),
            }
            for row in rows
        ]
        # a blown-up reference fails every rung, so the largest count is exact
        # for it and a lower bound otherwise
        failed = max((r["blowups"] for r in parsed), default=paths)
        out = {"csv": text, "rows": parsed}
        blk = Block(paths - failed, paths, failed, seconds, out)
        if status != 0:
            blk.problems.append(f"block {index}: converge exited {status}")
        if [r["rung"] for r in parsed] != list(self.rungs):
            blk.problems.append(f"block {index}: unexpected rungs in CSV")
        for r in parsed:
            if not (math.isfinite(r["estimate"]) and r["estimate"] > 0):
                blk.problems.append(f"block {index}: estimate {r['estimate']} at {r['rung']}")
            if not (math.isfinite(r["half_width"]) and r["half_width"] >= 0):
                blk.problems.append(f"block {index}: half-width {r['half_width']}")
        if failed:
            blk.problems.append(f"block {index}: {failed} blown-up paths")
        return blk

    def check_run(self, blocks):
        """Pooled over the run's blocks the estimates must decrease per rung."""
        done = [b for b in blocks if b.output is not None]
        if not done:
            return ["no block completed"]
        pooled = [
            math.fsum(b.output["rows"][k]["estimate"] for b in done) / len(done)
            for k in range(len(self.rungs))
        ]
        if not all(b < a for a, b in zip(pooled, pooled[1:])):
            return [f"pooled estimates do not decrease along the ladder: {pooled}"]
        return []

    def record(self, blk):
        return {"csv": blk.output["csv"],
                "estimates": [r["estimate"] for r in blk.output["rows"]],
                "half_widths": [r["half_width"] for r in blk.output["rows"]]}

    def compare(self, blk, recorded):
        """Problems against the recorded block, and whether the CSV is identical."""
        got = self.record(blk)
        problems = [
            f"{key} {got[key]} differ from recorded {recorded[key]}"
            for key in ("estimates", "half_widths")
            if not _same(got[key], recorded[key])
        ]
        return problems, {"csv_identical": got["csv"] == recorded["csv"]}


class MomentsImplicit:
    """``monte_carlo`` of ``heat_jump`` with ``implicit_projected`` at (32, 2048, 3).

    Why: no reference and no coupling, so reference reuse should change
    nothing here; the implicit step dominates; and the harness path loop
    keeps full-trajectory knot moments instead of terminal gaps, so a merged
    path loop that helps the ladder but costs this use shows up.
    """

    name = "moments-implicit"
    op_name = "paths_per_s"
    size = 64
    warm_size = 4
    resolution = (32, 2048, 3)
    reference = None

    def __init__(self, workdir):
        self.config_path = os.path.join(workdir, "moments.cfg")

    def setup(self):
        from spdesim import config, harness, space

        n, m, l = self.resolution
        _write(
            self.config_path,
            f"[space]\nn = {n}\n\n[coefficients]\nfixture = heat_jump\n\n"
            f"[scheme]\nkind = implicit_projected\nn = {n}\nm = {m}\nl = {l}\n"
            "initial = smooth\n",
        )
        settings = config.load_settings(self.config_path)
        self.marks = config.build_marks(settings)
        self.space = config.build_space(settings)
        self.base_triple = config.build_triple(settings, self.space, self.marks)
        self.triple = self.base_triple
        self.scheme = config.build_scheme_config(settings)
        zeta = space.project(self.space, space.smooth_profile(n))
        self.initial_energy = float(zeta @ zeta)
        self.harness = harness

    def use_triples(self, wrap):
        self.triple = wrap(self.base_triple)

    def block(self, index, seed, paths):
        import numpy as np
        from spdesim.schemes import ImplicitStepError

        started = time.perf_counter()
        try:
            stats = self.harness.monte_carlo(
                self.space, self.triple, self.scheme, self.marks, paths,
                block_seed(self.name, seed, index),
            )
        except ImplicitStepError as exc:
            # the study aborts, so none of the block's paths is kept
            seconds = time.perf_counter() - started
            return Block(0, paths, paths, seconds, None,
                         [f"block {index}: solver failed: {exc}"])
        seconds = time.perf_counter() - started
        mean, var = stats.knot_mean, stats.knot_var
        m = self.resolution[1]
        knots = [0, m // 4, m // 2, 3 * m // 4, m]
        out = {
            "final_mean": stats.final_mean,
            "final_var": stats.final_var,
            "knot_mean": [float(mean[k]) for k in knots],
            "knot_var": [float(var[k]) for k in knots],
            "mean_sum": math.fsum(mean.tolist()),
            "paths": stats.paths,
            "blowups": stats.blowups,
        }
        blk = Block(stats.paths - stats.blowups, stats.paths, stats.blowups,
                    seconds, out)
        bad = blk.problems
        if stats.blowups:
            bad.append(f"block {index}: {stats.blowups} blown-up paths")
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            bad.append(f"block {index}: non-finite knot moments")
        elif (mean <= 0).any() or (var < 0).any():
            bad.append(f"block {index}: non-positive mean or negative variance")
        elif not _close(float(mean[0]), self.initial_energy, 1e-12):
            bad.append(f"block {index}: initial moment {mean[0]} != {self.initial_energy}")
        elif var[0] != 0.0 or stats.final_mean >= mean[0]:
            bad.append(f"block {index}: paths do not share the initial value or do not decay")
        return blk

    def check_run(self, blocks):
        return [] if any(b.output is not None for b in blocks) else ["no block completed"]

    def record(self, blk):
        return dict(blk.output)

    def compare(self, blk, recorded):
        got = self.record(blk)
        return [
            f"{key} {got.get(key)} differs from recorded {want}"
            for key, want in recorded.items()
            if not _same(got.get(key), want)
        ], {}


class Conditions:
    """Criterion 09's condition suite: ``heat_jump`` at n = 8 and four mutations.

    Why: it runs no scheme and draws no noise; per-trial generator
    construction, ``norms`` and ``MarkIntegral`` dominate, so a batched
    trial scan shows here and scheme or harness work should change nothing.
    """

    name = "conditions"
    op_name = "trials_per_s"
    size = 2000
    warm_size = 200
    reference = None
    # the check each mutation is built to break; the base triple passes all
    targets = {"theta": "C2", "alpha": "C3", "anti": "C1", "reaction": "C1"}

    def __init__(self, workdir):
        """Holds nothing on disk; ``workdir`` keeps the constructor uniform."""

    def setup(self):
        import dataclasses

        import numpy as np
        from spdesim import harness
        from spdesim.fixtures import LinearDrift, heat_jump
        from spdesim.noise import PowerLawMarks
        from spdesim.space import build_sine_space, norms

        self.marks = PowerLawMarks()
        self.space = build_sine_space(8)
        base = heat_jump(self.space, self.marks)
        self.base_triples = {
            "base": base,
            "theta": heat_jump(self.space, self.marks, theta=1.2, lambda_const=0.375),
            "alpha": heat_jump(self.space, self.marks, alpha=1.0),
            "anti": dataclasses.replace(
                base, eval_A=LinearDrift(-base.linear_A), linear_A=-base.linear_A
            ),
            "reaction": heat_jump(self.space, self.marks, reaction=5.0),
        }
        self.triples = dict(self.base_triples)
        norms(self.space, np.ones(self.space.dim))  # fills the lazy Cholesky factor
        self.harness = harness

    def use_triples(self, wrap):
        self.triples = {k: wrap(t) for k, t in self.base_triples.items()}

    def block(self, index, seed, trials):
        suite = self.harness.SuiteConfig(
            trials=trials, seed=block_seed(self.name, seed, index)
        )
        verdicts, problems = {}, []
        ops = attempted = failed = 0
        started = time.perf_counter()
        for key, triple in self.triples.items():
            attempted += 5
            try:
                reports = self.harness.run_condition_suite(
                    triple, self.space, self.marks, suite
                )
            except ValueError as exc:
                # the suite stops at the raising check; count all five as failed
                failed += 5
                problems.append(f"block {index}: {key} suite raised: {exc}")
                continue
            ops += sum(r.trials for r in reports)
            verdicts[key] = {r.condition_id: r.passed for r in reports}
        seconds = time.perf_counter() - started
        blk = Block(ops, attempted, failed, seconds,
                    {"verdicts": verdicts}, problems)
        base = verdicts.get("base", {})
        if base and not all(base.values()):
            blk.problems.append(f"block {index}: base triple fails {base}")
        for key, target in self.targets.items():
            if key in verdicts and verdicts[key].get(target, True):
                blk.problems.append(f"block {index}: mutation {key} passes {target}")
        return blk

    def check_run(self, blocks):
        return [] if any(b.ops for b in blocks) else ["no block completed"]

    def record(self, blk):
        return {"verdicts": blk.output["verdicts"]}

    def compare(self, blk, recorded):
        got = blk.output["verdicts"]
        if got != recorded["verdicts"]:
            return [f"verdicts {got} differ from recorded {recorded['verdicts']}"], {}
        return [], {}


WORKLOADS = {w.name: w for w in (LadderExplicit, MomentsImplicit, Conditions)}
