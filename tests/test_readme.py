"""The README's library sketch runs as written, so that a public name it
calls cannot be removed or renamed without the README."""

import re
from pathlib import Path

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
