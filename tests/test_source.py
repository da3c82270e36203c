"""Source-level rules for the library package."""

import ast
from pathlib import Path

import auctionlab

PACKAGE = Path(auctionlab.__file__).parent


def test_no_assert_statements():
    # invariants must raise named errors: ``python -O`` strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
