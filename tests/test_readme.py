"""The README's command-line and library examples run as written, and
the library example's marked values hold."""

import shlex
from pathlib import Path

from bialgebra_forge import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, fence: str) -> str:
    """The first fenced block opened by fence under the heading."""
    text = README.read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    start = section.index(fence + "\n") + len(fence) + 1
    return section[start:section.index("```", start)]


def test_command_line_example_runs(tmp_path, monkeypatch, capsys):
    """Each command of the block, in order and in one directory (later
    commands read the files earlier ones write), exits 0."""
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line)
        for line in _block("Command line", "```").splitlines()
        if line.startswith("bialgebra-forge ")
    ]
    assert len(commands) == 11
    for argv in commands:
        code = cli.main(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)


def test_library_example_runs():
    """Each line the block marks '# True' becomes an assertion that its
    expression is True; the rest runs unchanged."""
    lines, marked = [], []
    for line in _block("Library", "```python").splitlines():
        code, _, comment = line.partition("#")
        if comment.strip() == "True":
            marked.append(code.strip())
            line = f"assert ({code.strip()}) is True, {code.strip()!r}"
        lines.append(line)
    assert marked == [
        "bf.coproduct_hom_defect(H).ok",
        "bf.class_f_check(H, antipode).ok",
        "bf.verify_order2(table).ok",
    ]
    exec(compile("\n".join(lines), str(README), "exec"), {})
