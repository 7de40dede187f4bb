"""README.md's library example runs as written, so a public name it imports cannot vanish."""

import re
from pathlib import Path

import pytest


def _python_blocks(heading: str) -> list[str]:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


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
