"""The README's library quick start runs as written and prints what it says."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_and_prints_its_stated_values():
    # a statement whose comment is a number, such as `alpha_order1(v).alpha  # 8.596...`,
    # must give that number to within one unit of its last stated digit
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    scope = {}
    stated_values = 0
    for node in ast.parse(block).body:
        exec(compile(ast.Module([node], []), README.name, "exec"), scope)
        stated = lines[node.end_lineno - 1].partition("#")[2].strip().removesuffix("...")
        if re.fullmatch(r"\d+\.\d+", stated):
            value = eval(compile(ast.Expression(node.value), README.name, "eval"), scope)
            unit = 10.0 ** -len(stated.partition(".")[2])
            assert abs(value - float(stated)) < unit, lines[node.end_lineno - 1]
            stated_values += 1
    assert stated_values == 4
