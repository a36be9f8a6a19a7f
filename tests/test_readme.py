"""The README's library example runs as written and its marked values hold."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    """The first fenced python block under the '## Library' heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_example_runs():
    """Each line the block marks '# True' becomes an assertion that its
    expression is True; the rest runs unchanged."""
    lines, marked = [], []
    for line in _library_block().splitlines():
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
