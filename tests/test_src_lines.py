import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# 7 code lines: the import, the class and def lines, the class attribute,
# both lines of the string that is not a docstring, and the return
SNIPPET = '''"""Module docstring
over two lines."""

import math  # a trailing comment leaves its line code


# a comment-only line
class Box:
    """Class docstring."""

    side = 1


def area(side):
    """Function docstring
    over two lines.
    """

    text = """a multi-line string
that is not a docstring"""
    return side * side
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    assert _tool().code_lines(SNIPPET) == 7


def test_the_tool_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "snippet.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    _tool().main(["src_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "     0  empty.py",
        "     7  snippet.py",
        "     7  total",
    ]
