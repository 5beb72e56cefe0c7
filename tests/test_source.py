import ast
import pathlib

import digrep


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so none may guard an answer
    src = pathlib.Path(digrep.__file__).parent
    found = ["%s:%d" % (p.name, node.lineno) for p in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
