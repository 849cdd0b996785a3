"""README's `vratio run` and `vratio fit` examples print what README shows."""

import shlex
from pathlib import Path

import numpy as np
import pytest

from vratio.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ PYTHONPATH=src python3 -m vratio "


def readme_examples() -> dict:
    """Each README command by its subcommand: (its arguments, the lines it prints)."""
    examples = {}
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if not line.startswith(PROMPT):
            continue
        command = line[len(PROMPT):]
        while command.endswith("\\"):
            command = command[:-1] + next(lines)
        output = []
        for line in lines:
            if line.startswith("```"):
                break
            output.append(line)
        args = shlex.split(command)
        examples[args[0]] = (args, output)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_both_examples():
    assert sorted(EXAMPLES) == ["fit", "run"]


@pytest.mark.parametrize("command", ["run", "fit"])
def test_readme_example_prints_what_readme_shows(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if command == "fit":
        # one generator: the Beta(2, 2) sample first, the uniform one second
        rng = np.random.default_rng(0)
        np.savetxt("num.txt", rng.beta(2, 2, 300))
        np.savetxt("den.txt", rng.uniform(size=300))
    args, output = EXAMPLES[command]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == output
