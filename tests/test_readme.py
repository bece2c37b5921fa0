"""The README's library sketch runs as written, so that a public name it
calls cannot be removed or renamed without the README, and its
configuration section names every config key."""

import re
from pathlib import Path

from spdesim.config import _KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_library_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (sketch,) = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(compile(sketch, str(README), "exec"), {"__name__": "readme_sketch"})
    out = capsys.readouterr().out
    # the ladder's CSV and the five condition reports
    assert out.startswith("rung_n,rung_m,rung_l,cb_over_m,est_sq_error,")
    for check in ("C1", "C2", "C3", "C4", "PropBF"):
        assert f"{check}: passed" in out


def test_the_readme_names_every_config_key():
    # each key of the one table of parsers and defaults is named in its
    # section of the ini block, or, a fixture parameter, in the fixture table
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", text, re.S)
    sections = dict(re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block, re.S | re.M))
    table = "\n".join(line for line in text.splitlines() if line.startswith("| `"))
    for section, keys in _KEYS.items():
        for key in keys:
            named = re.search(rf"\b{key}\b", sections[section]) or (
                section == "coefficients" and f"`{key}`" in table
            )
            assert named, f"[{section}] {key} is not named in the README"
