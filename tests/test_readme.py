"""The README's examples run as printed and give the results they state."""

import ast
import shlex
from fractions import Fraction

from reesval.cli import main
from conftest import REPO_ROOT


def readme_block(heading: str, lang: str) -> str:
    """The first fenced `lang` block of the README section `heading`."""
    section = (REPO_ROOT / "README.md").read_text(encoding="utf-8").split(f"\n## {heading}\n")[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_gives_its_commented_results():
    # each expression line ends in "# result"; the result is read as Python
    block = readme_block("Library", "python")
    lines = block.splitlines()
    namespace = {"Fraction": Fraction}
    checked = []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            result = lines[stmt.end_lineno - 1].split("#", 1)[1].strip()
            assert eval(code, namespace) == eval(result, namespace), code
            checked.append(result)
        else:
            exec(code, namespace)
    assert checked == ["[((3, 2), 6)]", "((2,0), (1,2), (0,3))", "Fraction(5, 6)", "1"]


def test_readme_command_lines_exit_zero(monkeypatch, capsys):
    # every line of the command-line block, from the repository root (the
    # corpus path is relative to it); the vbar line prints what it says
    monkeypatch.chdir(REPO_ROOT)
    outputs = {}
    for line in readme_block("Command line", "sh").splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "reesval", line
        assert main(argv) == 0, line
        outputs[argv[0]] = capsys.readouterr().out
    assert outputs["vbar"] == "5/6\n"
