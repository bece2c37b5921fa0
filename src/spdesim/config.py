"""Flat sectioned key=value configuration for the CLI.

The file format is INI-style sections of key = value pairs; a `#` at the
start of a line, or after whitespace in a value, starts a comment.  Every
known key has one parser and, unless another value gives it, one default,
both in the table `_KEYS`.  `load_settings` parses each key that is given
once, rejecting unknown sections and keys so that typos surface as errors
rather than silently falling back to defaults, and returns the parsed
values with the defaults filled in; the build functions and the CLI read
those values and parse nothing again.  The environment variable
SPDE_SEED, when set, overrides the configured master seed: `load_settings`
reads it once and stores it as ``settings["noise"]["master_seed"]``.
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
    return tuple(_finite(tok) for tok in raw.replace(",", " ").split())


def _int_list(raw):
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _boolean(raw):
    if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _rung(token):
    return tuple(int(v) for v in token.split(":"))


def _rungs(raw):
    return tuple(_rung(token) for token in raw.split(",") if token.strip())


def _initial(raw):
    return raw if raw in ("smooth", "zero") else _finite_list(raw)


# The (parser, default) of every known key, by section.  A key given as
# (parser,) alone has no default: a fixture parameter keeps the fixture's,
# [ladder] rungs and reference are required in a [ladder] section, and
# [stability] alpha is the triple's growth constant.
_KEYS = {
    "space": {"n": (int, 8)},
    "coefficients": {"fixture": (str, "heat_jump")} | {
        key: (int if key == "modes" else _finite,)
        for keys in _FIXTURE_KEYS.values()
        for key in keys
    },
    "noise": {"family": (str, "unit-interval-power-law"), "beta": (_finite, 1.5),
              "master_seed": (int, 20240501),
              "atom_positions": (_finite_list, (0.25, 0.5, 1.0)),
              "atom_weights": (_finite_list, (1.0, 1.0, 1.0))},
    "scheme": {"kind": (str, "explicit"), "n": (int, 8), "m": (int, 64), "l": (int, 2),
               "initial": (_initial, "smooth")},
    "run": {"paths": (int, 100), "workers": (int, 1), "timing": (_boolean, False),
            "trials": (int, 10_000)},
    "ladder": {"rungs": (_rungs,), "reference": (_rung,), "strict_gate": (_boolean, False)},
    "stability": {"n_values": (_int_list, (4, 8, 16)),
                  "m_values": (_int_list, (64, 256, 1024, 4096)),
                  "gamma": (_finite, 0.5), "alpha": (_finite,)},
}


class ConfigError(ValueError):
    pass


def load_settings(path):
    """The parsed config: a dict from each section of `_KEYS` to a dict of
    its keys' values, the given ones parsed and every other key that has a
    default at its default.

    An unknown section or key, a value that does not parse, a number that
    is not finite (a [coefficients], [stability] or [noise] beta number, an
    atom position or weight, or an initial coordinate), a [ladder] section
    without rungs or reference, or an SPDE_SEED that is not an integer,
    raises a ConfigError naming its `[section] key` or the variable; a file
    that is not sectioned key = value lines raises one naming the line.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    read = _read(parser, path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    settings = {
        section: {key: spec[1] for key, spec in keys.items() if len(spec) > 1}
        for section, keys in _KEYS.items()
    }
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            settings[section][key] = _parse(f"[{section}] {key}", _KEYS[section][key][0], raw)
    env = os.environ.get("SPDE_SEED")
    if env is not None:
        settings["noise"]["master_seed"] = _parse("SPDE_SEED", int, env)
    if parser.has_section("ladder"):
        for key in ("rungs", "reference"):
            if key not in settings["ladder"]:
                raise ConfigError(f"[ladder] {key}: missing")
    return settings


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
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def build_marks(settings):
    noise = settings["noise"]
    if noise["family"] == "unit-interval-power-law":
        return PowerLawMarks(beta=noise["beta"])
    if noise["family"] == "finite-atoms":
        return AtomMarks(positions=noise["atom_positions"], weights=noise["atom_weights"])
    raise ConfigError(f"unknown mark family {noise['family']!r}")


def ambient_dim(settings):
    """Largest dimension any configured component needs."""
    dims = [settings["space"]["n"], settings["scheme"]["n"]]
    if "rungs" in settings["ladder"]:
        ladder = parse_ladder(settings)
        dims.append(ladder.reference[0])
        dims.extend(r[0] for r in ladder.rungs)
    return max(dims)


def build_space(settings, dim=None):
    return build_sine_space(dim if dim is not None else ambient_dim(settings))


def build_triple(settings, space, marks):
    """The configured fixture, called with every [coefficients] key it takes."""
    kwargs = dict(settings["coefficients"])
    name = kwargs.pop("fixture")
    if name not in FIXTURES:
        raise ConfigError(f"unknown fixture {name!r}; choose from {sorted(FIXTURES)}")
    for key in kwargs:
        if key not in _FIXTURE_KEYS[name]:
            raise ConfigError(
                f"[coefficients] {key} is not a parameter of fixture {name!r}; "
                f"it takes {', '.join(_FIXTURE_KEYS[name])}"
            )
    return FIXTURES[name](space, marks, **kwargs)


def build_scheme_config(settings):
    """The [scheme] config.  ``initial = zero`` is a zero vector as long as
    the larger of [scheme] n and a [ladder]'s reference n, which bounds
    every rung's n, so that every run starts from zero."""
    scheme = settings["scheme"]
    initial = scheme["initial"]
    if initial == "smooth":
        initial = None
    elif initial == "zero":
        reference = settings["ladder"].get("reference", (0,))
        initial = np.zeros(max(scheme["n"], reference[0]))
    else:
        initial = np.asarray(initial)
    return SchemeConfig(
        kind=scheme["kind"],
        n=scheme["n"],
        m=scheme["m"],
        l=scheme["l"],
        initial=initial,
    )


def parse_ladder(settings):
    ladder = settings["ladder"]
    if "rungs" not in ladder:
        raise ConfigError("config has no [ladder] section")
    return LadderSpec(
        rungs=ladder["rungs"],
        reference=ladder["reference"],
        paths=settings["run"]["paths"],
        master_seed=settings["noise"]["master_seed"],
        kind=settings["scheme"]["kind"],
        strict_gate=ladder["strict_gate"],
    )


def suite_config(settings):
    return SuiteConfig(
        trials=settings["run"]["trials"],
        seed=settings["noise"]["master_seed"],
    )
