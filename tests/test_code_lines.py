"""The code-line counter (code_lines.py) that the size figures of
`src/` are taken with."""

from code_lines import code_lines, main

SAMPLE = '''"""A module
docstring."""

# a comment
def f(x):  # a comment after code
    """A function docstring."""

    s = """a string
that is no docstring"""
    return (x +
            1)


class C:
    """A class docstring."""
    "a string that is not the first statement"
'''


def test_counter_leaves_out_blanks_comments_and_docstrings():
    # def, both lines of s, both lines of the return, class, the string
    assert code_lines(SAMPLE) == 7
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_counter_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"     7  {tmp_path / 'a.py'}\n"
        f"     2  {tmp_path / 'pkg' / 'b.py'}\n"
        "     9  total\n")
