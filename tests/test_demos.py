"""Every demo script, and README's library quick start, runs to completion."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")



def states_a_value(comment):
    # A Python literal states its line's value; prose and elided values do not.
    if "..." in comment:
        return False
    try:
        ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        return False
    return True


def test_readme_quick_start_states_its_values():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    source = block.split("```", 1)[0]
    lines = source.splitlines()
    namespace = {}
    stated = []
    for stmt in ast.parse(source).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and states_a_value(comment):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comment), ast.unparse(stmt)
            stated.append(value)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert stated == [3720, [-1, 3720, -4550940, 2028551200],
                      141359947154721358697753474691071362751004672000, []]
