"""The code-line counter in tools/code_lines.py."""

import importlib.util
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# the comments after "code" mark the lines that count
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # code: an import with a comment


class Thing:
    """Class docstring."""

    size = 1  # code

    def method(self):
        """Method
        docstring.
        """
        text = """a string that is not a docstring,

        on two non-blank lines"""  # code: 2 (the blank line does not count)
        "a second string expression"  # code
        return (text,  # code
                os.sep)  # code


async def waiter():
    \'\'\'Async docstring.\'\'\'
    # indented comment
    return None  # code
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, class, size, def method, the string's two non-blank lines,
    # the second string, return's two lines, async def, return None
    assert code_lines.code_lines(FIXTURE) == 11
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_prints_a_count_per_file_and_a_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# c\ny = 2\n")
    (tmp_path / "c.py").write_text("z = 3\n")
    done = subprocess.run([sys.executable, str(TOOL), "pkg", "c.py"], cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "11\tpkg/a.py\n2\tpkg/b.py\n1\tc.py\n14\ttotal\n"
