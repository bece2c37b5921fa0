"""Flat sectioned key=value configuration for the CLI.

The file format is INI-style sections of key = value pairs; a `#` at the
start of a line, or after whitespace in a value, starts a comment.  Unknown
keys are rejected early so typos surface as errors rather than silently
falling back to defaults.  The environment variable SPDE_SEED, when set,
overrides the configured master seed.
"""

from __future__ import annotations

import configparser
import inspect
import math
import os

import numpy as np

from .fixtures import additive_multimode, heat_jump, semilinear, zero_triple
from .harness import LadderSpec, SuiteConfig
from .noise import AtomMarks, PowerLawMarks
from .schemes import SchemeConfig
from .space import build_sine_space

FIXTURES = {
    "heat_jump": heat_jump,
    "additive_multimode": additive_multimode,
    "semilinear": semilinear,
    "zero": zero_triple,
}

# The [coefficients] keys of a fixture are its keyword parameters after
# (space, marks); `modes` is read as an int and every other key as a finite
# float.
_FIXTURE_KEYS = {
    name: tuple(inspect.signature(fn).parameters)[2:] for name, fn in FIXTURES.items()
}


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _finite_list(raw):
    return [_finite(tok) for tok in raw.replace(",", " ").split()]


def _int_list(raw):
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _boolean(raw):
    if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _rung(token):
    return tuple(int(v) for v in token.split(":"))


def _rungs(raw):
    return [_rung(token) for token in raw.split(",") if token.strip()]


# The parser of every known key, by section.
_KNOWN_KEYS = {
    "space": {"family": str, "n": int},
    "coefficients": {"fixture": str} | {
        key: int if key == "modes" else _finite
        for keys in _FIXTURE_KEYS.values()
        for key in keys
    },
    "noise": {"family": str, "beta": float, "l_modes": int, "l_level": int,
              "master_seed": int, "atom_positions": _finite_list,
              "atom_weights": _finite_list},
    "scheme": {"kind": str, "n": int, "m": int, "l": int,
               "initial": lambda raw: raw in ("smooth", "zero") or _finite_list(raw)},
    "run": {"paths": int, "workers": int, "timing": _boolean, "trials": int},
    "ladder": {"rungs": _rungs, "reference": _rung, "strict_gate": _boolean},
    "stability": {"n_values": _int_list, "m_values": _int_list, "gamma": _finite,
                  "alpha": _finite},
}


class ConfigError(ValueError):
    pass


def load_settings(path):
    """The parsed config; unknown sections and keys and bad values are rejected.

    A value that does not parse, a number that is not finite (a
    [coefficients] or [stability] number, an atom position or weight, or an
    initial coordinate), or an SPDE_SEED that is not an integer, raises a
    ConfigError naming its `[section] key` or the variable; a file that is
    not sectioned key = value lines raises one naming the line.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    read = _read(parser, path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            _parse(f"[{section}] {key}", _KNOWN_KEYS[section][key], raw)
    env = os.environ.get("SPDE_SEED")
    if env is not None:
        _parse("SPDE_SEED", int, env)
    return parser


def _read(parser, path):
    """``parser.read(path)``, with a malformed file raised as a ConfigError
    naming the file and the line."""
    try:
        return parser.read(path)
    except configparser.MissingSectionHeaderError as exc:
        line, problem = exc.lineno, f"{exc.line.strip()!r} comes before any [section]"
    except configparser.ParsingError as exc:
        line, problem = exc.errors[0][0], "not a [section] header or key = value"
    except configparser.DuplicateOptionError as exc:
        line, problem = exc.lineno, f"[{exc.section}] {exc.option} is given twice"
    except configparser.DuplicateSectionError as exc:
        line, problem = exc.lineno, f"section [{exc.section}] is given twice"
    raise ConfigError(f"{path}, line {line}: {problem}")


def _parse(where, parse, raw):
    try:
        parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def master_seed(settings):
    env = os.environ.get("SPDE_SEED")
    if env is not None:
        return int(env)
    return settings.getint("noise", "master_seed", fallback=20240501)


def build_marks(settings):
    family = settings.get("noise", "family", fallback="unit-interval-power-law")
    if family == "unit-interval-power-law":
        return PowerLawMarks(beta=settings.getfloat("noise", "beta", fallback=1.5))
    if family == "finite-atoms":
        positions = _finite_list(
            settings.get("noise", "atom_positions", fallback="0.25, 0.5, 1.0")
        )
        weights = _finite_list(
            settings.get("noise", "atom_weights", fallback="1.0, 1.0, 1.0")
        )
        return AtomMarks(positions=tuple(positions), weights=tuple(weights))
    raise ConfigError(f"unknown mark family {family!r}")


def ambient_dim(settings):
    """Largest dimension any configured component needs."""
    dims = [
        settings.getint("space", "n", fallback=8),
        settings.getint("scheme", "n", fallback=8),
    ]
    if settings.has_section("ladder"):
        ladder = parse_ladder(settings)
        dims.append(ladder.reference[0])
        dims.extend(r[0] for r in ladder.rungs)
    return max(dims)


def build_space(settings, dim=None):
    family = settings.get("space", "family", fallback="sine-dirichlet")
    if family not in ("sine-dirichlet", "sine-dirichlet-(0,1)"):
        raise ConfigError(f"unknown basis family {family!r}")
    return build_sine_space(dim if dim is not None else ambient_dim(settings))


def build_triple(settings, space, marks):
    """The configured fixture, called with every [coefficients] key it takes."""
    name = settings.get("coefficients", "fixture", fallback="heat_jump")
    if name not in FIXTURES:
        raise ConfigError(f"unknown fixture {name!r}; choose from {sorted(FIXTURES)}")
    kwargs = {}
    if settings.has_section("coefficients"):
        for key, raw in settings.items("coefficients"):
            if key == "fixture":
                continue
            if key not in _FIXTURE_KEYS[name]:
                raise ConfigError(
                    f"[coefficients] {key} is not a parameter of fixture {name!r}; "
                    f"it takes {', '.join(_FIXTURE_KEYS[name])}"
                )
            kwargs[key] = _KNOWN_KEYS["coefficients"][key](raw)
    return FIXTURES[name](space, marks, **kwargs)


def build_scheme_config(settings):
    initial_raw = settings.get("scheme", "initial", fallback="smooth")
    n = settings.getint("scheme", "n", fallback=8)
    if initial_raw == "smooth":
        initial = None
    elif initial_raw == "zero":
        initial = np.zeros(n)
    else:
        initial = np.asarray(_finite_list(initial_raw))
    return SchemeConfig(
        kind=settings.get("scheme", "kind", fallback="explicit"),
        n=n,
        m=settings.getint("scheme", "m", fallback=64),
        l=settings.getint("scheme", "l", fallback=2),
        initial=initial,
    )


def parse_ladder(settings):
    if not settings.has_section("ladder"):
        raise ConfigError("config has no [ladder] section")
    for key in ("rungs", "reference"):
        if not settings.has_option("ladder", key):
            raise ConfigError(f"[ladder] {key}: missing")
    return LadderSpec(
        rungs=tuple(_rungs(settings.get("ladder", "rungs"))),
        reference=_rung(settings.get("ladder", "reference")),
        paths=settings.getint("run", "paths", fallback=100),
        master_seed=master_seed(settings),
        kind=settings.get("scheme", "kind", fallback="explicit"),
        strict_gate=settings.getboolean("ladder", "strict_gate", fallback=False),
    )


def suite_config(settings):
    return SuiteConfig(
        trials=settings.getint("run", "trials", fallback=10_000),
        seed=master_seed(settings),
    )

