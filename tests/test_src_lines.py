"""tests/src_lines.py: code lines leave out docstrings, comments and
blank lines, and a second tree gives the net change."""

import contextlib
import io

import src_lines

BASE = '''"""A module docstring
over two lines."""

# a comment
def f(x):
    """One line."""
    return x + 1
'''

CHANGED = BASE + '''

def g(x):
    return (x +
            2)
'''


def _tree(root, text):
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "a.py").write_text(text)
    (root / "b.py").write_text("X = 1\n")
    return root


def test_counts_skip_docstrings_comments_and_blank_lines():
    assert src_lines.counts(BASE) == (7, 2)
    assert src_lines.counts(CHANGED) == (12, 5)


def test_a_base_tree_adds_its_total_and_the_net_change(tmp_path):
    new, base = _tree(tmp_path / "new", CHANGED), _tree(tmp_path / "base", BASE)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert src_lines.main([str(new), str(base)]) == 0
    lines = [line.split() for line in out.getvalue().splitlines()]
    assert lines[1:] == [
        ["b.py", "1", "1"], ["pkg/a.py", "12", "5"], ["total", "13", "6"],
        ["base", "total", "8", "3"], ["change", "+5", "+3"],
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        src_lines.main([str(base), str(new)])
    assert out.getvalue().splitlines()[-1].split() == ["change", "-5", "-3"]
