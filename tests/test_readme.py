"""README's library tour runs as written and shows the values it states.

Each expression statement of the tour's ``python`` block is evaluated; where
its comment opens with a literal (a nested list, True or False), the value
must equal that literal.
"""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"
_STATED = re.compile(r"#\s*(\[[\[\]0-9., ]*\]|True|False)")


def _tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_tour_shows_the_values_it_states():
    tour = _tour()
    lines = tour.splitlines()
    namespace, stated = {}, {}
    for node in ast.parse(tour).body:
        code = ast.get_source_segment(tour, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        match = _STATED.search(lines[node.end_lineno - 1])
        if match:
            stated[code] = (value, ast.literal_eval(match.group(1)))
    assert set(stated) == {
        "res.shorted",
        "ps.sum",
        "minus_leq(np.diag([1., 0, 0]), np.diag([1., 1, 0])).holds",
    }
    for code, (value, want) in stated.items():
        if isinstance(want, bool):
            assert value is want, code
        else:
            np.testing.assert_allclose(value, want, atol=1e-12, err_msg=code)
