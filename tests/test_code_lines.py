import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCES = {
    # docstrings, comments and blank lines: only the class, def and return lines count
    "docs.py": ('"""Module\ndocstring."""\n\n# a comment\n\n\nclass A:\n    """Class docstring."""\n'
                '\n\ndef f():\n    """Function\n    docstring."""\n    # a comment in a body\n'
                '    return 1  # a trailing comment\n', 3),
    "call.py": ("print(\n    1,\n    2)\n", 3),
    # a string that is not a docstring counts every line it spans, its blank one too
    "strings.py": ('def f():\n    x = 1\n    """not a\n    docstring"""\n    return x\n\n\n'
                   'TEXT = """one\ntwo\n\nfour"""\n', 9),
}


def run_tool(*paths) -> list[tuple[int, str]]:
    out = subprocess.run([sys.executable, str(TOOL), *map(str, paths)], check=True,
                         capture_output=True, text=True).stdout
    return [(int(count), name) for count, name in (line.split(None, 1) for line in out.splitlines())]


def test_code_lines_counts_each_file_and_the_total(tmp_path):
    for name, (text, _) in SOURCES.items():
        (tmp_path / name).write_text(text)
    *per_file, total, docs = run_tool(tmp_path)
    assert {Path(name).name: count for count, name in per_file} == {
        name: want for name, (_, want) in SOURCES.items()}
    assert total == (sum(count for count, _ in per_file), "total")
    # the docstrings of docs.py span 2 + 1 + 2 lines; strings.py has none
    assert docs == (5, "docstring total")


def test_code_lines_on_one_file(tmp_path):
    path = tmp_path / "call.py"
    path.write_text(SOURCES["call.py"][0])
    assert run_tool(path) == [(3, str(path)), (3, "total"), (0, "docstring total")]
