import importlib.util
import inspect
import json
import os
import re
import stat
import sys
import threading
from collections import Counter
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from spdesim import coefficients
from spdesim.cli import main
from spdesim.config import (
    _FIXTURE_KEYS,
    FIXTURES,
    ConfigError,
    build_marks,
    build_scheme_config,
    build_space,
    build_triple,
    load_settings,
    parse_ladder,
    suite_config,
)
from spdesim.harness import SuiteConfig
from spdesim.noise import AtomMarks, PowerLawMarks
from spdesim.space import build_sine_space

BASE_CONFIG = """
[space]
n = 8

[coefficients]
fixture = heat_jump
theta = 0.5
lipschitz = 0.1
k1 = 0.1
k2 = 0.1

[noise]
family = unit-interval-power-law
beta = 1.5
master_seed = 4242

[scheme]
kind = explicit
n = 4
m = 32
l = 2
initial = smooth
"""

LADDER_SECTION = """
[run]
paths = 30
workers = 1

[ladder]
rungs = 2:16:1, 4:64:2
reference = 8:256:3
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


@pytest.fixture()
def ladder_config(tmp_path):
    path = tmp_path / "ladder.cfg"
    path.write_text(BASE_CONFIG + LADDER_SECTION)
    return path


def test_unknown_key_rejected(tmp_path):
    # l_modes and l_level changed no `simulate` output: it samples its
    # block at (m, min(l, the triple's Wiener modes), l); [space] family
    # selected nothing, there being one basis family
    for section, key in (("scheme", "kindd"), ("scheme", "gamma"), ("noise", "l_modes"),
                         ("noise", "l_level"), ("space", "family")):
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"[{section}]\n{key} = 3\n")
        with pytest.raises(
            ConfigError, match=re.escape(f"unknown key {key!r} in section [{section}]")
        ):
            load_settings(path)


def test_errors_exit_with_one_line(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.cfg"
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text(BASE_CONFIG.replace("initial = smooth", "gamma = 0.5"))
    for command in ("simulate", "converge", "check-conditions", "stability"):
        for path in (missing, bad_key):
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("spdesim: error: ") and err.count("\n") == 1
    unwritable = tmp_path / "no-such-dir" / "traj.json"
    config = tmp_path / "run.cfg"
    config.write_text(BASE_CONFIG)
    assert main(["simulate", "--config", str(config), "--out", str(unwritable)]) == 2
    assert "no-such-dir" in capsys.readouterr().err

    from spdesim import cli
    from spdesim.schemes import ImplicitStepError

    def unsolvable(*args, **kwargs):
        raise ImplicitStepError("implicit step did not converge")

    monkeypatch.setattr(cli, "run_block", unsolvable)
    assert main(["simulate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "spdesim: error: implicit step did not converge\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("n = 8\n[scheme]\nm = 32\n", "line 1: 'n = 8' comes before any [section]"),
        ("[scheme]\nn = 8\nn = 4\n", "line 3: [scheme] n is given twice"),
        ("[scheme]\nn 8\n", "line 2: not a [section] header or key = value"),
    ],
    ids=["key-before-section", "key-twice", "line-without-equals"],
)
def test_malformed_config_exits_2_naming_its_line(tmp_path, capsys, text, message):
    # exit status 1 means a failed check to check-conditions, so a file
    # that does not parse must end as one error line with status 2
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_settings(path)
    for command in ("simulate", "converge", "check-conditions", "stability"):
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"spdesim: error: {path}, {message}\n")


_FLOAT_COEFFICIENTS = sorted(
    {key for keys in _FIXTURE_KEYS.values() for key in keys} - {"modes"}
)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize(
    "section, key",
    [("coefficients", key) for key in _FLOAT_COEFFICIENTS]
    + [("noise", "beta"), ("noise", "atom_positions"), ("noise", "atom_weights")]
    + [("scheme", "initial"), ("stability", "gamma"), ("stability", "alpha")],
)
def test_a_value_that_is_not_finite_exits_2_naming_its_key(
    tmp_path, capsys, section, key, value
):
    # a NaN Lipschitz constant or an atom at inf used to run to exit 0 with
    # every path blown up and NaN estimates, a NaN initial coordinate to a
    # NaN `simulate` and a NaN gamma to a NaN `stability` rho
    if section == "coefficients":
        text = re.sub(rf"(?m)^{key} = .*\n", "", BASE_CONFIG).replace(
            "fixture = heat_jump", f"fixture = heat_jump\n{key} = {value}"
        )
    elif section == "scheme":
        text = BASE_CONFIG.replace("initial = smooth", f"initial = 1, {value}, 1, 1")
    elif section == "stability":
        text = BASE_CONFIG + f"\n[stability]\n{key} = {value}\n"
    elif key == "beta":
        text = BASE_CONFIG.replace("beta = 1.5", f"beta = {value}")
    else:
        atoms = {"atom_positions": "0.5", "atom_weights": "1.0"} | {key: value}
        text = BASE_CONFIG.replace(
            "family = unit-interval-power-law",
            "family = finite-atoms\n"
            + "".join(f"{name} = {raw}\n" for name, raw in atoms.items()),
        )
    path = tmp_path / "c.cfg"
    path.write_text(text + LADDER_SECTION)
    where = f"[{section}] {key}: not a finite number: {value!r}"
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_settings(path)
    for command in ("simulate", "converge", "check-conditions", "stability"):
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"spdesim: error: {where}\n")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_conditions_rejects_fewer_than_one_trial(tmp_path, capsys, trials):
    path = tmp_path / "c.cfg"
    path.write_text(BASE_CONFIG + f"[run]\ntrials = {trials}\n")
    assert main(["check-conditions", "--config", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "spdesim: error: condition suite needs at least one trial\n"
    )


@pytest.mark.parametrize(
    "flag, configured, message",
    [
        (["--workers", "-3"], "1", "--workers: need at least one worker, got -3"),
        (["--workers", "0"], "1", "--workers: need at least one worker, got 0"),
        ([], "0", "[run] workers: need at least one worker, got 0"),
    ],
)
def test_converge_rejects_fewer_than_one_worker(
    tmp_path, capsys, flag, configured, message
):
    path = tmp_path / "c.cfg"
    path.write_text(
        BASE_CONFIG + LADDER_SECTION.replace("workers = 1", f"workers = {configured}")
    )
    assert main(["converge", "--config", str(path), *flag]) == 2
    assert capsys.readouterr() == ("", f"spdesim: error: {message}\n")


def test_readme_config_example_loads(tmp_path, monkeypatch):
    # the README's [ini] block, inline comments included, builds every
    # object a command reads from a config
    monkeypatch.delenv("SPDE_SEED", raising=False)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("\n```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block + "\n")
    settings = load_settings(path)
    marks = build_marks(settings)
    space = build_space(settings)
    triple = build_triple(settings, space, marks)
    assert isinstance(marks, PowerLawMarks) and marks.beta == 1.5
    assert space.dim == 32
    assert triple.eval_B.theta == 0.5 and triple.jump_profile.amplitude == 0.1
    scheme = build_scheme_config(settings)
    assert (scheme.kind, scheme.n, scheme.m, scheme.l) == ("explicit", 8, 2048, 3)
    ladder = parse_ladder(settings)
    assert ladder.rungs == ((4, 64, 2), (8, 256, 3), (16, 1024, 4))
    assert (ladder.reference, ladder.paths, ladder.master_seed) == (
        (32, 4096, 5), 200, 20240501
    )
    assert not ladder.strict_gate
    assert suite_config(settings) == SuiteConfig(trials=10_000, seed=20240501)


def test_a_config_of_a_ladder_alone_takes_every_default(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SPDE_SEED", raising=False)
    path = tmp_path / "ladder.cfg"
    path.write_text("[ladder]\nrungs = 2:16:1, 4:64:2\nreference = 16:1024:3\n")
    settings = load_settings(path)
    assert build_marks(settings) == PowerLawMarks(1.5)
    assert build_space(settings).dim == 16
    scheme = build_scheme_config(settings)
    assert (scheme.kind, scheme.n, scheme.m, scheme.l, scheme.initial) == (
        "explicit", 8, 64, 2, None
    )
    ladder = parse_ladder(settings)
    assert (ladder.paths, ladder.master_seed, ladder.kind, ladder.strict_gate) == (
        100, 20240501, "explicit", False
    )
    assert suite_config(settings) == SuiteConfig(trials=10_000, seed=20240501)
    out = tmp_path / "report.csv"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err.endswith(", workers 1)\n")
    rows = out.read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["0", "0"]
    # with no [ladder] section, the space is the larger of the two n
    path = tmp_path / "space.cfg"
    path.write_text("[space]\nn = 4\n")
    assert build_space(load_settings(path)).dim == 8


@pytest.mark.parametrize(
    "command, text, seed, where",
    [
        ("simulate", BASE_CONFIG.replace("n = 4", "n = six"), None, "[scheme] n"),
        ("simulate", BASE_CONFIG.replace("theta = 0.5", "theta = half"), None,
         "[coefficients] theta"),
        ("simulate", BASE_CONFIG + LADDER_SECTION.replace("2:16:1, 4:64:2", "2:8:x"),
         None, "[ladder] rungs"),
        ("simulate", BASE_CONFIG, "abc", "SPDE_SEED"),
        ("converge", BASE_CONFIG + LADDER_SECTION.replace("reference = 8:256:3", ""),
         None, "[ladder] reference"),
        ("converge", BASE_CONFIG + LADDER_SECTION.replace("rungs = 2:16:1, 4:64:2", ""),
         None, "[ladder] rungs"),
    ],
    ids=["scheme-n", "coefficients-theta", "ladder-rungs", "SPDE_SEED",
         "ladder-reference-missing", "ladder-rungs-missing"],
)
def test_unparsable_value_exits_2_naming_its_key(
    tmp_path, capsys, monkeypatch, command, text, seed, where
):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    if seed is not None:
        monkeypatch.setenv("SPDE_SEED", seed)
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spdesim: error: ") and err.count("\n") == 1
    assert where in err


@pytest.mark.parametrize(
    "lines, positions, weights",
    [
        ("", (0.25, 0.5, 1.0), (1.0, 1.0, 1.0)),
        ("atom_positions = 0.125, 0.75\natom_weights = 2.0, 0.5\n", (0.125, 0.75),
         (2.0, 0.5)),
    ],
    ids=["defaults", "listed"],
)
def test_finite_atoms_marks_come_from_the_config(tmp_path, lines, positions, weights):
    # the README's other mark family: its atoms default to three of unit
    # weight, and a simulate run steps on them
    power_law = "family = unit-interval-power-law\nbeta = 1.5\n"
    text = BASE_CONFIG.replace(power_law, "family = finite-atoms\n" + lines)
    path = tmp_path / "atoms.cfg"
    path.write_text(text)
    marks = build_marks(load_settings(path))
    assert marks == AtomMarks(positions=positions, weights=weights)
    out = tmp_path / "atoms.json"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["blow_up_step"] is None
    assert np.isfinite(payload["values"]).all()


@pytest.mark.parametrize(
    "initial, coords",
    [("zero", [0.0] * 4), ("1.5, -0.25, 0.5, 2.0, 7.0", [1.5, -0.25, 0.5, 2.0, 7.0])],
    ids=["zero", "coordinates"],
)
@pytest.mark.parametrize("kind", ["explicit", "implicit_projected"])
def test_configured_initial_is_the_first_knot_of_simulate(tmp_path, initial, coords, kind):
    # the explicit scheme starts from zero and injects the initial condition
    # at knot 1, the implicit ones start from it at knot 0; coordinates past
    # the scheme's n = 4 are dropped
    text = BASE_CONFIG.replace("initial = smooth", f"initial = {initial}")
    path = tmp_path / "initial.cfg"
    path.write_text(text.replace("kind = explicit", f"kind = {kind}"))
    assert build_scheme_config(load_settings(path)).initial.tolist() == coords
    out = tmp_path / "initial.json"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    values = json.loads(out.read_text())["values"]
    if kind == "explicit":
        assert values[0] == [0.0] * 4 and values[1] == coords[:4]
    else:
        assert values[0] == coords[:4]


def test_zero_initial_is_zero_at_every_rung_of_a_ladder(tmp_path):
    # with [scheme] n = 4 the reference and rungs need up to 8 coordinates;
    # `initial = zero` gives them all zeros, as eight explicit zeros do
    coefficients = BASE_CONFIG[
        BASE_CONFIG.index("[coefficients]") : BASE_CONFIG.index("[noise]")
    ]
    additive = "[coefficients]\nfixture = additive_multimode\n\n"
    text = BASE_CONFIG.replace(coefficients, additive)
    csv = {}
    for initial in ("zero", "0, 0, 0, 0, 0, 0, 0, 0"):
        path = tmp_path / "zero.cfg"
        path.write_text(
            text.replace("initial = smooth", f"initial = {initial}")
            + LADDER_SECTION.replace("paths = 30", "paths = 4")
        )
        out = tmp_path / "zero.csv"
        assert main(["converge", "--config", str(path), "--out", str(out)]) == 0
        csv[initial] = out.read_bytes()
    assert csv["zero"] == csv["0, 0, 0, 0, 0, 0, 0, 0"]
    assert len(csv["zero"].splitlines()) == 3


def test_env_seed_override(config_file, monkeypatch):
    assert load_settings(config_file)["noise"]["master_seed"] == 4242
    monkeypatch.setenv("SPDE_SEED", "77")
    assert load_settings(config_file)["noise"]["master_seed"] == 77


def test_simulate_writes_trajectory(config_file, tmp_path, capsys):
    out = tmp_path / "traj.json"
    final = tmp_path / "final.csv"
    code = main(
        [
            "simulate",
            "--config",
            str(config_file),
            "--out",
            str(out),
            "--final-csv",
            str(final),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "explicit"
    assert payload["m"] == 32
    assert len(payload["values"]) == 33
    assert list(payload) == [
        "kind", "n", "m", "l", "knots", "values", "blow_up_step",
        "solver_iterations", "solver_residuals", "vnorm_weighted",
    ]
    # delta * lambda * sum_i ||u(t_i)||_V^p over the knots
    settings = load_settings(config_file)
    space = build_space(settings)
    constants = build_triple(settings, space, build_marks(settings)).constants
    n, vals = payload["n"], np.asarray(payload["values"])
    want = sum(
        constants.lam * (v @ space.v_gram[:n, :n] @ v) ** (constants.p / 2)
        for v in vals
    ) * (payload["knots"][-1] / payload["m"])
    assert payload["vnorm_weighted"] == pytest.approx(want, rel=1e-12)
    lines = final.read_text().splitlines()
    assert lines[0] == "mode,value"
    assert len(lines) == 5


def test_simulate_deterministic_under_env_seed(config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SPDE_SEED", "99")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["simulate", "--config", str(config_file), "--out", str(out1)])
    main(["simulate", "--config", str(config_file), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.setenv("SPDE_SEED", "100")
    out3 = tmp_path / "c.json"
    main(["simulate", "--config", str(config_file), "--out", str(out3)])
    assert out1.read_bytes() != out3.read_bytes()


def test_simulate_reports_an_overflowing_v_norm_only_as_its_blow_up(tmp_path):
    # on the README config at n = 32, m = 128 the V-norm of the knots before
    # the blow-up overflows while their H-norm does not: stderr carries the
    # blow-up line and no numpy warning, and the weighted sum reads inf
    import subprocess

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("\n```", 1)[0]
    scheme = block.split("[scheme]\n", 1)[1]
    stiff = scheme.replace("n = 8\nm = 2048", "n = 32\nm = 128", 1)
    assert stiff != scheme
    path = tmp_path / "stiff.cfg"
    path.write_text(block.replace(scheme, stiff) + "\n")
    out = tmp_path / "traj.json"
    env = {k: v for k, v in os.environ.items() if k != "SPDE_SEED"}
    done = subprocess.run(
        [sys.executable, "-m", "spdesim.cli", "simulate", "--config", str(path),
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0
    assert done.stderr == "blow-up at step 101\n"
    payload = json.loads(out.read_text())
    assert payload["blow_up_step"] == 101
    assert payload["vnorm_weighted"] == float("inf")


def test_check_conditions_exit_codes(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text(BASE_CONFIG + "[run]\ntrials = 300\n")
    assert main(["check-conditions", "--config", str(good)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        BASE_CONFIG.replace("theta = 0.5", "theta = 1.2\nlambda_const = 0.375")
        + "[run]\ntrials = 300\n"
    )
    assert main(["check-conditions", "--config", str(bad)]) == 1


def test_check_conditions_output_format(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASE_CONFIG + "[run]\ntrials = 200\n")
    main(["check-conditions", "--config", str(cfg)])
    out = capsys.readouterr().out
    for tag in ("C1", "C2", "C3", "C4", "PropBF"):
        assert tag in out


def test_stability_table(config_file, capsys):
    code = main(["stability", "--config", str(config_file)])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,m,c_b,rho,in_I_gamma"
    # default grid: 3 n-values x 4 m-values
    assert len(out) == 1 + 12
    first = out[1].split(",")
    assert first[0] == "4" and first[1] == "64"
    # 17 significant digits: c_b(4) = 30 pi^2
    assert first[2] == f"{30 * np.pi**2:.17g}"


def test_console_script_entry_point():
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "spdesim.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "simulate" in out.stdout and "converge" in out.stdout


def test_product_runs_without_loading_scipy(tmp_path):
    # scipy is a test-only reference: a fresh process that imports the
    # package and runs converge, check-conditions, stability and an
    # iteratively solved implicit simulate must not load it
    import subprocess

    config = tmp_path / "tiny.cfg"
    config.write_text(
        BASE_CONFIG
        + LADDER_SECTION.replace("paths = 30", "paths = 4").replace(
            "workers = 1", "workers = 1\ntrials = 200"
        )
    )
    # the semilinear drift has no `linear_A`: its implicit steps take the
    # chord step and, where it does not halve the residual, Newton's
    semilinear = tmp_path / "semilinear.cfg"
    semilinear.write_text(
        re.sub(r"\[coefficients\][^[]*", "[coefficients]\nfixture = semilinear\n\n", BASE_CONFIG)
        .replace("kind = explicit", "kind = implicit_projected")
    )
    script = f"""
import sys
scipy_modules = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import spdesim
from spdesim.cli import main
assert scipy_modules() == [], scipy_modules()
assert main(["converge", "--config", {str(config)!r}, "--out", {str(tmp_path / "c.csv")!r}]) == 0
assert main(["check-conditions", "--config", {str(config)!r}]) == 0
assert main(["stability", "--config", {str(config)!r}]) == 0
assert main(["simulate", "--config", {str(semilinear)!r}, "--out", {str(tmp_path / "s.json")!r}]) == 0
assert scipy_modules() == [], scipy_modules()
"""
    env = {k: v for k, v in os.environ.items() if k != "SPDE_SEED"}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "c.csv").read_text().count("\n") == 3
    trajectory = json.loads((tmp_path / "s.json").read_text())
    assert trajectory["kind"] == "implicit_projected"
    assert min(trajectory["solver_iterations"]) >= 1


def test_converge_reproducible_across_workers(tmp_path):
    # 65 paths are two blocks, so the 8-worker run starts worker processes
    config = tmp_path / "ladder.cfg"
    config.write_text(BASE_CONFIG + LADDER_SECTION.replace("paths = 30", "paths = 65"))
    out1 = tmp_path / "r1.csv"
    out8 = tmp_path / "r8.csv"
    main(["converge", "--config", str(config), "--out", str(out1), "--workers", "1"])
    main(["converge", "--config", str(config), "--out", str(out8), "--workers", "8"])
    assert out1.read_bytes() == out8.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == (
        "rung_n,rung_m,rung_l,cb_over_m,est_sq_error,ci_half_width,blowups,seconds"
    )


def test_converge_passes_quadrature_and_reports_failures(tmp_path, monkeypatch, capsys):
    # the time rule is the constant averaging.TIME_POINTS: a [quadrature]
    # section is an unknown section, and converge reports per-rung failures
    from spdesim import cli, harness

    def fake(*args, **kwargs):
        row = harness.ConvergenceRow(
            n=2, m=16, l=1, cb_over_m=1.0, estimate=0.5, half_width=0.25,
            blowups=1, failures=2, seconds=0.0,
        )
        return harness.ConvergenceReport(
            rows=[row], monotone=True, separated=True, reference_seconds=0.0
        )

    monkeypatch.setattr(cli, "convergence_study", fake)
    path = tmp_path / "quad.cfg"
    argv = ["converge", "--config", str(path), "--out", str(tmp_path / "q.csv")]
    path.write_text(BASE_CONFIG + LADDER_SECTION + "\n[quadrature]\npoints_per_step = 1\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "spdesim: error: unknown config section [quadrature]\n"
    )
    path.write_text(BASE_CONFIG + LADDER_SECTION)
    assert main(argv) == 0
    assert "blowups 1 failures 2" in capsys.readouterr().err


# the three output files: the command, its flag, and the newline that the
# command's stdout form adds (None: there is none)
OUTPUTS = [
    pytest.param("converge", "--out", "", id="converge-out"),
    pytest.param("simulate", "--out", "\n", id="simulate-out"),
    pytest.param("simulate", "--final-csv", None, id="simulate-final-csv"),
]


@pytest.mark.parametrize("command, flag, end", OUTPUTS)
def test_an_output_file_is_overwritten_in_place(
    ladder_config, tmp_path, capsys, command, flag, end
):
    def run(path):
        argv = [command, "--config", str(ladder_config)]
        argv += [flag, str(path)] if path else []
        assert main(argv) == 0
        return capsys.readouterr().out

    fresh = tmp_path / "fresh"
    umask = os.umask(0o027)
    try:
        run(fresh)
    finally:
        os.umask(umask)
    want = fresh.read_bytes()
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o640
    if end is not None:
        assert run(None) == want.decode() + end
    # an existing file keeps its mode, and a link stays a link to its target
    longer, shorter = tmp_path / "longer", tmp_path / "shorter"
    longer.write_bytes(want * 3 + b"old tail")
    shorter.write_bytes(want[: len(want) // 2])
    longer.chmod(0o600)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(want * 2)
    link.symlink_to(target)
    for path in (longer, shorter, link):
        run(path)
    assert longer.read_bytes() == shorter.read_bytes() == target.read_bytes() == want
    assert stat.S_IMODE(longer.stat().st_mode) == 0o600
    assert link.is_symlink() and os.readlink(link) == str(target)


@pytest.mark.parametrize("command, flag, end", OUTPUTS)
def test_an_output_to_a_device_or_a_pipe_is_not_cut(
    ladder_config, tmp_path, command, flag, end
):
    argv = [command, "--config", str(ladder_config), flag]
    assert main(argv + [os.devnull]) == 0
    fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
    assert main(argv + [str(fresh)]) == 0
    os.mkfifo(fifo)
    received = []
    # a daemon, so that a reader still waiting for a writer cannot hang the run
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    try:
        assert main(argv + [str(fifo)]) == 0
    finally:
        reader.join(timeout=30)
    assert received == [fresh.read_bytes()]


def test_outputs_are_opened_without_truncation(ladder_config, tmp_path, monkeypatch):
    # truncating an existing file and writing it again makes ext4 (with its
    # default auto_da_alloc) flush the file when it is closed
    from spdesim import cli

    outputs = [tmp_path / name for name in ("report.csv", "traj.json", "final.csv")]
    for path in outputs:
        path.write_text("an earlier output\n")
    os_opened, truncating = [], []
    real_os_open, real_open = os.open, open

    def os_open(path, flags, *args, **kwargs):
        os_opened.append(Path(path))
        if flags & os.O_TRUNC:
            truncating.append(("os.open O_TRUNC", path))
        return real_os_open(path, flags, *args, **kwargs)

    def builtin_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and "w" in mode:
            truncating.append((f"open mode {mode!r}", file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(cli, "open", builtin_open, raising=False)
    report, trajectory, final = (str(path) for path in outputs)
    assert main(["converge", "--config", str(ladder_config), "--out", report]) == 0
    assert main(["simulate", "--config", str(ladder_config), "--out", trajectory,
                 "--final-csv", final]) == 0
    assert truncating == []
    assert set(outputs) <= set(os_opened)


@pytest.mark.parametrize(
    "fixture, keys, honoured, foreign",
    [
        (
            "additive_multimode",
            "k1 = 5.0\nlambda_const = 0.9\nmodes = 3",
            lambda tr: (tr.constants.k1 == 5.0
                        and tr.constants.lam == 0.9
                        and tr.wiener_modes == 3),
            "theta",
        ),
        (
            "semilinear",
            "amplitude = 0.25\nk2 = 3.0",
            lambda tr: tr.eval_A.amplitude == 0.25 and tr.constants.k2 == 3.0,
            "theta",
        ),
        ("zero", "horizon = 2.0", lambda tr: tr.constants.horizon == 2.0, "k1"),
    ],
    ids=["additive_multimode", "semilinear", "zero"],
)
def test_coefficient_keys_reach_the_fixture_and_foreign_keys_exit_2(
    tmp_path, capsys, fixture, keys, honoured, foreign
):
    good = tmp_path / "good.cfg"
    good.write_text(f"[coefficients]\nfixture = {fixture}\n{keys}\n")
    settings = load_settings(good)
    marks = build_marks(settings)
    assert honoured(build_triple(settings, build_space(settings), marks))

    bad = tmp_path / "bad.cfg"
    bad.write_text(
        f"[coefficients]\nfixture = {fixture}\n{foreign} = 0.9\n\n[run]\ntrials = 10\n"
    )
    settings = load_settings(bad)
    with pytest.raises(ConfigError, match=rf"{foreign} .*'{fixture}'"):
        build_triple(settings, build_space(settings), marks)
    assert main(["check-conditions", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spdesim: error: ") and err.count("\n") == 1
    assert foreign in err


# valid values for every keyword parameter of the shipped fixtures
_VALID = {
    "theta": st.floats(-0.9, 0.9),
    "lipschitz": st.floats(0.0, 1.0),
    "reaction": st.floats(0.0, 2.0),
    "lambda_const": st.floats(0.1, 2.0),
    "alpha": st.floats(1.0, 8.0),
    "k1": st.floats(0.0, 5.0),
    "k1bar": st.floats(0.0, 5.0),
    "k2": st.floats(0.0, 5.0),
    "horizon": st.floats(0.25, 4.0),
    "amplitude": st.floats(0.0, 2.0),
    "modes": st.integers(1, 6),
}


@st.composite
def _fixture_and_keywords(draw):
    name = draw(st.sampled_from(sorted(FIXTURES)))
    params = list(inspect.signature(FIXTURES[name]).parameters)[2:]
    keys = draw(st.lists(st.sampled_from(params), unique=True))
    return name, {key: draw(_VALID[key]) for key in keys}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(case=_fixture_and_keywords())
def test_build_triple_equals_a_direct_fixture_call(tmp_path_factory, case):
    name, kwargs = case
    # a fresh file per example: rewriting one file can flush it on every close
    path = tmp_path_factory.mktemp("coefficients") / "coefficients.cfg"
    lines = [f"{key} = {value!r}" for key, value in kwargs.items()]
    path.write_text("[coefficients]\nfixture = " + "\n".join([name] + lines) + "\n")
    space = build_sine_space(4)
    marks = PowerLawMarks(beta=1.5)
    got = build_triple(load_settings(path), space, marks)
    want = FIXTURES[name](space, marks, **kwargs)

    assert (got.dim, got.wiener_modes) == (want.dim, want.wiener_modes)
    assert got.constants == want.constants
    t, x, xi = 0.2, np.array([0.5, -1.0, 0.25, 2.0]), np.array([0.1, 0.7])
    np.testing.assert_array_equal(got.eval_A(t, x), want.eval_A(t, x))
    np.testing.assert_array_equal(got.eval_B(t, x), want.eval_B(t, x))
    np.testing.assert_array_equal(got.eval_F(t, x, xi), want.eval_F(t, x, xi))
    np.testing.assert_array_equal(got.jump_profile(t, x), want.jump_profile(t, x))


BENCH_DIR = Path(__file__).resolve().parents[1] / "spdebench"


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_tracing():
    return _load_by_path("spdebench_tracing", BENCH_DIR / "tracing.py")


def test_benchmark_selftest_passes(monkeypatch):
    """The benchmark's span arithmetic and metric-name checks hold."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    had_tracing = "tracing" in sys.modules
    try:
        _load_by_path("spdebench_selftest", BENCH_DIR / "selftest.py").run()
    finally:
        if not had_tracing:
            sys.modules.pop("tracing", None)


@pytest.mark.parametrize("kind, evals", [("explicit", 666), ("implicit_projected", 666)])
def test_benchmark_tracer_counts_a_converge_run(tmp_path, kind, evals):
    """The benchmark tracer hooks parameter and function names of the package."""
    tracing = _benchmark_tracing()
    for paths in (2, 5):
        path = tmp_path / "trace.cfg"
        path.write_text(
            BASE_CONFIG.replace("kind = explicit", f"kind = {kind}")
            + f"\n[run]\npaths = {paths}\n\n[ladder]\nrungs = 2:16:1, 4:64:2\n"
            "reference = 8:256:3\n"
        )
        tracer = tracing.Tracer(reference=(8, 256, 3))
        tracer.install()
        try:
            code = main(
                ["converge", "--config", str(path), "--out", str(tmp_path / "t.csv"),
                 "--workers", "1"]
            )
        finally:
            tracer.uninstall()
        assert code == 0
        counts = tracing.exact_counts(tracer, paths)
        spans = Counter(tracer.labels[i] for i in tracer.arrays()["name"])
        # the paths are one block, which each configuration steps once through
        # run_block; the tracer tags reference runs only on harness.run_scheme
        # calls and counts steps only off run_explicit/run_implicit results,
        # names the package no longer has, so it sees neither for a study
        assert spans["schemes.run_block"] == 3
        assert counts["harness.reference_runs_per_path"] == 0.0
        assert counts["schemes.steps"] == 0
        assert counts["fixtures.evals_per_step"] == 0.0
        # per block, whatever its path count: the noise's two evaluations at
        # each step from knot 2 on, which both kinds take; the explicit steps
        # take the drift through I + δA, the implicit solves through the
        # inverse of I − δA
        assert sum(spans[f"fixtures.{e}"] for e in tracing.EVALUATORS) == evals
        # one mark partition per configuration per block
        assert counts["noise.build_partition.calls"] == 3


def test_benchmark_tracer_counts_a_condition_suite(tmp_path):
    """Each check is one span under the name the benchmark reads, and each
    chunk of trials one span per mark integral."""
    tracing = _benchmark_tracing()
    path = tmp_path / "trace.cfg"
    path.write_text(BASE_CONFIG + "\n[run]\ntrials = 20\n")
    # the counts below are those of a cold run: no earlier test's draws
    coefficients._trial_draws.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["check-conditions", "--config", str(path)])
        first = tracer.mark()[0]
        again = main(["check-conditions", "--config", str(path)])
    finally:
        tracer.uninstall()
    assert code == again == 0
    names = tracer.arrays()["name"]
    # an identical run checks again and reuses every trial draw of the
    # first; only the hemicontinuity probe draws its rows again
    repeat = Counter(tracer.labels[i] for i in names[first:])
    assert repeat["coefficients.PropBF"] == 1 and repeat["rng.philox_raw"] == 1
    spans = Counter(tracer.labels[i] for i in names[:first])
    for check in ("C1", "C2", "C3", "C4", "PropBF"):
        assert spans[f"coefficients.{check}"] == 1
    # the 20 trials are one chunk: one integral in C1 and C2, none in C3 and
    # two in PropBF per chunk
    assert spans["coefficients.integral_sq"] == 4
    # each sampled check draws its trials from one raw Philox pass, and the
    # probe its rows from one more; nothing builds a generator
    assert spans["rng.philox_raw"] == 5
    assert tracing.exact_counts(tracer, 0, hi=first)["rng.make_generator.calls"] == 0
