"""The README's Python examples run, and print what their comments say."""

from __future__ import annotations

import ast
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_python_examples_run_and_print_the_stated_thresholds(capsys):
    quick_start, sweep = python_blocks(README.read_text())
    namespace: dict = {}
    exec(compile(quick_start, "README quick start", "exec"), namespace)
    t_mue, voc_total = map(float, capsys.readouterr().out.split())
    assert math.isfinite(t_mue) and t_mue > 0.0
    assert math.isfinite(voc_total)

    exec(compile(sweep, "README sweep", "exec"), namespace)
    thresholds, city_type = capsys.readouterr().out.splitlines()
    assert city_type in ("I", "II", "III")
    stated = re.search(r"print\(sweep\.critical_thresholds\).*?(\[.*?\])",
                       sweep).group(1)
    assert ast.literal_eval(stated) == [0.475, 0.625]
    assert ast.literal_eval(thresholds) == ast.literal_eval(stated)
