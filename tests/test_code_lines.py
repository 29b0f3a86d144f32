"""tools/code_lines.py counts code lines: no docstring, comment or blank
line, and every line of a statement that spans several."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """a string value,
        not a docstring"""
        return (x +
                1)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    tool = load_tool()
    # import, class, def, the two lines of text and of return
    assert tool.code_lines(SOURCE) == 7
    counts = tool.src_code_lines()
    assert counts.pop("total") == sum(counts.values())
    assert "nsk.py" in counts
