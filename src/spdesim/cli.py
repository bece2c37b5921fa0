"""Command-line interface.

Subcommands:

* ``simulate`` - run one scheme configuration on one path, a block of one
  that keeps its states, and write the trajectory as JSON (plus optionally
  the terminal value as CSV).
* ``converge`` - run the configured resolution ladder and write the CSV
  report.  The CSV is deterministic for a fixed config and seed; measured
  per-rung run times go to stderr and enter the CSV only with
  ``timing = on`` in the [run] section.  Per-rung blow-up and solver
  failure counts and the reference run time go to stderr as well.
* ``check-conditions`` - run the structural-condition suite; exit status 0
  when every check passes, 1 otherwise.
* ``stability`` - print the explicit-scheme stability margin table over
  the configured (n, m) grid.

An ``--out`` or ``--final-csv`` file is created, or overwritten in place
and cut to the new length: a symlink stays a link, an existing file keeps
its mode, and ``/dev/null`` or a pipe takes the text and is not cut.
Nothing is synced to disk, and the write is not atomic.

A bad config, an unreadable or unwritable file and an implicit step that
cannot be solved end every command with one ``spdesim: error: ...`` line
on stderr and exit status 2.

All numeric output is printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time

import numpy as np

from . import config as cfg
from .harness import convergence_study, run_condition_suite
from .noise import TimeGrid, sample_block
from .schemes import STATES, ImplicitStepError, run_block, stability_margin
from .space import c_b, restrict


def _fmt(value):
    return f"{value:.17g}"


def _write(path, text):
    """Write `text` from the start of `path`, then cut a regular file to it.

    A new file gets mode 0o666 less the umask, as ``open(path, "w")`` gives.
    The file is opened without ``O_TRUNC``: on ext4 with ``auto_da_alloc``
    a truncating rewrite flushes the file to disk when it is closed, tens of
    milliseconds for a few rows, and an overwrite in place does not.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _load(args):
    settings = cfg.load_settings(args.config)
    marks = cfg.build_marks(settings)
    space = cfg.build_space(settings)
    triple = cfg.build_triple(settings, space, marks)
    return settings, marks, space, triple


def _vnorm_weighted(values, blow_up_step, space, constants, grid):
    """δ·λ·Σ_i ‖u(t_i)‖_V^p over the knots before any blow-up.

    The V-norm may overflow before the H-norm does; the sum is then inf.
    """
    vals = values if blow_up_step is None else values[:blow_up_step]
    with np.errstate(over="ignore"):
        vsq = ((vals @ restrict(space, vals.shape[1]).v_gram) * vals).sum(1)
        return float(np.sum(grid.delta * constants.lam * vsq ** (constants.p / 2.0)))


def _cmd_simulate(args):
    settings, marks, space, triple = _load(args)
    scheme_config = cfg.build_scheme_config(settings)
    seed = settings["noise"]["master_seed"]
    grid = TimeGrid(triple.constants.horizon, scheme_config.m)
    modes = min(scheme_config.l, triple.wiener_modes)
    noise = sample_block([seed], grid, modes, marks, scheme_config.l)
    run = run_block(space, triple, scheme_config, noise, keep=STATES)
    if run.failures[0] is not None:
        raise ImplicitStepError(run.failures[0])
    values = run.kept[:, 0]
    blow_up_step = run.blow_up_steps[0]
    payload = json.dumps(
        {
            "kind": scheme_config.kind,
            "n": scheme_config.n,
            "m": scheme_config.m,
            "l": scheme_config.l,
            "knots": grid.knots.tolist(),
            "values": values.tolist(),
            "blow_up_step": blow_up_step,
            "solver_iterations": run.solver_iterations[:, 0].tolist(),
            "solver_residuals": run.solver_residuals[:, 0].tolist(),
            "vnorm_weighted": _vnorm_weighted(
                values, blow_up_step, space, triple.constants, grid
            ),
        }
    )
    if args.out:
        _write(args.out, payload)
    else:
        sys.stdout.write(payload + "\n")
    if args.final_csv:
        rows = (f"{k},{_fmt(v)}\n" for k, v in enumerate(values[-1], start=1))
        _write(args.final_csv, "mode,value\n" + "".join(rows))
    if blow_up_step is not None:
        print(f"blow-up at step {blow_up_step}", file=sys.stderr)
    return 0


def _cmd_converge(args):
    settings, marks, space, triple = _load(args)
    scheme_config = cfg.build_scheme_config(settings)
    ladder = cfg.parse_ladder(settings)
    workers, where = args.workers, "--workers"
    if workers is None:
        workers, where = settings["run"]["workers"], "[run] workers"
    if workers < 1:
        raise ValueError(f"{where}: need at least one worker, got {workers}")
    started = time.perf_counter()
    report = convergence_study(space, triple, marks, ladder, scheme_config, workers)
    elapsed = time.perf_counter() - started
    text = report.to_csv(timing=settings["run"]["timing"])
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    for row in report.rows:
        print(
            f"rung ({row.n},{row.m},{row.l}): {_fmt(row.estimate)} "
            f"+/- {_fmt(row.half_width)} [{row.seconds:.2f}s] "
            f"blowups {row.blowups} failures {row.failures}",
            file=sys.stderr,
        )
    n, m, l = ladder.reference
    print(f"reference ({n},{m},{l}): [{report.reference_seconds:.2f}s]", file=sys.stderr)
    print(f"verdict: {report.verdict} (total {elapsed:.2f}s, workers {workers})",
          file=sys.stderr)
    return 0


def _cmd_check_conditions(args):
    settings, marks, space, triple = _load(args)
    suite = cfg.suite_config(settings)
    reports = run_condition_suite(triple, space, marks, suite)
    for report in reports:
        print(
            f"{report.condition_id}: "
            f"{'pass' if report.passed else 'FAIL'} "
            f"worst={_fmt(report.worst_violation)} trials={report.trials}"
        )
    return 0 if all(report.passed for report in reports) else 1


def _cmd_stability(args):
    settings, marks, space, triple = _load(args)
    stability = settings["stability"]
    alpha = stability.get("alpha", triple.constants.alpha)
    print("n,m,c_b,rho,in_I_gamma")
    for n in stability["n_values"]:
        sub = cfg.build_space(settings, n)
        for m in stability["m_values"]:
            grid = TimeGrid(triple.constants.horizon, m)
            rho, inside = stability_margin(alpha, grid, sub, stability["gamma"])
            print(f"{n},{m},{_fmt(c_b(sub))},{_fmt(rho)},{int(inside)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="spdesim",
        description="Galerkin time-stepping schemes for stochastic evolution "
        "equations with Wiener and compensated Poisson noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configuration")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", help="trajectory JSON output path")
    p_sim.add_argument("--final-csv", help="terminal value CSV output path")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_conv = sub.add_parser("converge", help="run the resolution ladder")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--out", help="CSV report output path")
    p_conv.add_argument("--workers", type=int, default=None)
    p_conv.set_defaults(fn=_cmd_converge)

    p_check = sub.add_parser("check-conditions", help="structural condition suite")
    p_check.add_argument("--config", required=True)
    p_check.set_defaults(fn=_cmd_check_conditions)

    p_stab = sub.add_parser("stability", help="stability margin table")
    p_stab.add_argument("--config", required=True)
    p_stab.set_defaults(fn=_cmd_stability)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ImplicitStepError, OSError) as exc:
        print(f"spdesim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
