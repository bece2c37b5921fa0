"""Flat sectioned key=value configuration for the CLI.

The file format is INI-style sections of key = value pairs.  Unknown keys
are rejected early so typos surface as errors rather than silently falling
back to defaults.  The environment variable SPDE_SEED, when set, overrides
the configured master seed.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

import numpy as np

from .fixtures import additive_multimode, heat_jump, semilinear, zero_triple
from .harness import LadderSpec, SuiteConfig
from .noise import AtomMarks, PowerLawMarks
from .schemes import SchemeConfig
from .space import build_sine_space

_KNOWN_KEYS = {
    "space": {"family", "n"},
    "coefficients": {
        "fixture",
        "theta",
        "lipschitz",
        "lambda_const",
        "k1",
        "k1bar",
        "k2",
        "alpha",
        "reaction",
        "horizon",
        "modes",
        "amplitude",
    },
    "noise": {"family", "beta", "l_modes", "l_level", "master_seed",
              "atom_positions", "atom_weights"},
    "scheme": {"kind", "n", "m", "l", "initial"},
    "run": {"paths", "workers", "timing", "trials"},
    "ladder": {"rungs", "reference", "strict_gate"},
    "stability": {"n_values", "m_values", "gamma", "alpha"},
    "quadrature": {"points_per_step"},
}

FIXTURES = {
    "heat_jump": heat_jump,
    "additive_multimode": additive_multimode,
    "semilinear": semilinear,
    "zero": zero_triple,
}


class ConfigError(ValueError):
    pass


@dataclass
class Settings:
    """Parsed configuration with typed accessors."""

    parser: configparser.ConfigParser

    def get(self, section, key, default=None):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        return default

    def getfloat(self, section, key, default=None):
        raw = self.get(section, key)
        return default if raw is None else float(raw)

    def getint(self, section, key, default=None):
        raw = self.get(section, key)
        return default if raw is None else int(raw)

    def getbool(self, section, key, default=False):
        raw = self.get(section, key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: cannot parse boolean {raw!r}")


def load_settings(path):
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return Settings(parser)


def master_seed(settings):
    env = os.environ.get("SPDE_SEED")
    if env is not None:
        return int(env)
    return settings.getint("noise", "master_seed", 20240501)


def build_marks(settings):
    family = settings.get("noise", "family", "unit-interval-power-law")
    if family == "unit-interval-power-law":
        return PowerLawMarks(beta=settings.getfloat("noise", "beta", 1.5))
    if family == "finite-atoms":
        positions = _float_list(settings.get("noise", "atom_positions", "0.25, 0.5, 1.0"))
        weights = _float_list(settings.get("noise", "atom_weights", "1.0, 1.0, 1.0"))
        return AtomMarks(positions=tuple(positions), weights=tuple(weights))
    raise ConfigError(f"unknown mark family {family!r}")


def _float_list(raw):
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _int_list(raw):
    return [int(tok) for tok in raw.replace(",", " ").split()]


def ambient_dim(settings):
    """Largest dimension any configured component needs."""
    dims = [settings.getint("space", "n", 8), settings.getint("scheme", "n", 8)]
    if settings.parser.has_section("ladder"):
        ladder = parse_ladder(settings, paths=1, seed=0)
        dims.append(ladder.reference[0])
        dims.extend(r[0] for r in ladder.rungs)
    return max(dims)


def build_space(settings, dim=None):
    family = settings.get("space", "family", "sine-dirichlet")
    if family not in ("sine-dirichlet", "sine-dirichlet-(0,1)"):
        raise ConfigError(f"unknown basis family {family!r}")
    return build_sine_space(dim if dim is not None else ambient_dim(settings))


def build_triple(settings, space, marks):
    name = settings.get("coefficients", "fixture", "heat_jump")
    if name not in FIXTURES:
        raise ConfigError(f"unknown fixture {name!r}; choose from {sorted(FIXTURES)}")
    kwargs = {}
    sec = "coefficients"
    if name == "heat_jump":
        kwargs = dict(
            theta=settings.getfloat(sec, "theta", 0.5),
            lipschitz=settings.getfloat(sec, "lipschitz", 0.1),
            reaction=settings.getfloat(sec, "reaction", 0.0),
            lambda_const=settings.getfloat(sec, "lambda_const"),
            alpha=settings.getfloat(sec, "alpha"),
            k1=settings.getfloat(sec, "k1", 0.1),
            k1bar=settings.getfloat(sec, "k1bar"),
            k2=settings.getfloat(sec, "k2", 0.1),
            horizon=settings.getfloat(sec, "horizon", 1.0),
        )
        return heat_jump(space, marks, **kwargs)
    if name == "additive_multimode":
        return additive_multimode(
            space,
            marks,
            modes=settings.getint(sec, "modes"),
            horizon=settings.getfloat(sec, "horizon", 1.0),
        )
    if name == "semilinear":
        return semilinear(
            space,
            marks,
            amplitude=settings.getfloat(sec, "amplitude", 0.5),
            horizon=settings.getfloat(sec, "horizon", 1.0),
        )
    return zero_triple(space, marks, horizon=settings.getfloat(sec, "horizon", 1.0))


def build_scheme_config(settings):
    initial_raw = settings.get("scheme", "initial", "smooth")
    n = settings.getint("scheme", "n", 8)
    if initial_raw == "smooth":
        initial = None
    elif initial_raw == "zero":
        initial = np.zeros(n)
    else:
        initial = np.asarray(_float_list(initial_raw))
    return SchemeConfig(
        kind=settings.get("scheme", "kind", "explicit"),
        n=n,
        m=settings.getint("scheme", "m", 64),
        l=settings.getint("scheme", "l", 2),
        initial=initial,
    )


def parse_ladder(settings, paths=None, seed=None):
    if not settings.parser.has_section("ladder"):
        raise ConfigError("config has no [ladder] section")
    rungs = []
    for token in settings.get("ladder", "rungs", "").split(","):
        token = token.strip()
        if token:
            rungs.append(tuple(int(v) for v in token.split(":")))
    reference = tuple(
        int(v) for v in settings.get("ladder", "reference", "").split(":")
    )
    return LadderSpec(
        rungs=tuple(rungs),
        reference=reference,
        paths=paths if paths is not None else settings.getint("run", "paths", 100),
        master_seed=seed if seed is not None else master_seed(settings),
        kind=settings.get("scheme", "kind", "explicit"),
        strict_gate=settings.getbool("ladder", "strict_gate", False),
    )


def suite_config(settings):
    return SuiteConfig(
        trials=settings.getint("run", "trials", 10_000),
        seed=master_seed(settings),
    )


def quadrature_spec(settings):
    from .averaging import QuadratureSpec

    return QuadratureSpec(
        points_per_step=settings.getint("quadrature", "points_per_step", 4)
    )
