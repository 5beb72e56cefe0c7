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


def test_only_reduce_eliminates():
    # _eliminate, the row step of Gauss-Jordan, is called from linalg._reduce
    # alone, so every elimination of the package is that one loop
    src = pathlib.Path(digrep.__file__).parent
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == "_eliminate" or getattr(f, "attr", None) == "_eliminate":
                callers.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for p in sorted(src.glob("*.py")):
        visit(ast.parse(p.read_text()), (p.stem,))
    assert callers == {"linalg._reduce"}
