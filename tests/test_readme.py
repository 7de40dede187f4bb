"""README.md's library and CLI examples run as written, so a public name or flag they use cannot vanish."""

import re
from pathlib import Path

import pytest

from frogcrit.cli import main


def _section(heading: str) -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]


def _python_blocks(heading: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", _section(heading), re.S)


def test_library_example_runs_and_says_what_it_prints():
    (block,) = _python_blocks("## Library")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # the values its comments state
    assert namespace["result"].q_c == pytest.approx(0.272873, abs=1e-6)
    assert namespace["result"].residual < 1e-12
    assert f"{namespace['rate'].gamma:.6f}" == "2.000000"
    assert tuple(namespace["columns"]) == ("d", "lower", "upper")
    assert [row[0] for row in namespace["rows"]] == [2, 3]


def _cli_commands() -> list[str]:
    return re.search(r"```\n(.*?)```", _section("## CLI"), re.S).group(1).splitlines()


def test_cli_block_holds_seven_frogcrit_commands():
    commands = _cli_commands()
    assert len(commands) == 7
    assert all(line.startswith("frogcrit ") for line in commands)


@pytest.mark.parametrize("command", _cli_commands())
def test_cli_example_runs_as_written(command, capsys):
    """Each command of the CLI block exits 0 with nothing on stderr, so a removed flag shows here."""
    code = main(command.split()[1:])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out
