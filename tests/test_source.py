"""Source-level rules for the library package."""

import ast
import json
import os
import subprocess
import sys
import textwrap
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


def test_no_plain_value_errors():
    # input checks raise the errors.py type that fits; each is a ValueError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and getattr(getattr(node.exc, "func", node.exc), "id", None) == "ValueError"
    ]
    assert found == []


def test_no_top_level_scipy_import():
    # scipy costs most of the start-up; only the quadrature oracles load it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    ]
    assert found == []


ISOLATION_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    import auctionlab
    import auctionlab.cli as cli

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(list(argv))
        return code, out.getvalue()

    codes = [run(*argv)[0] for argv in (
        ("simulate", "--mode", "two-bidder", "--n", "4", "--samples", "2000", "--ks"),
        ("sequential", "--n", "4", "--k", "2", "--samples", "50"),
        ("best-response", "--n", "6", "--k", "3"),
        ("marginals", "--grid", "4"),
        ("verify", "--suite", "marginals", "--samples", "2000"),
    )]
    before = "scipy" in sys.modules
    code, out = run("verify", "--suite", "density", "--format", "json")
    print(json.dumps({"codes": codes, "before": before, "density": [code, json.loads(out)],
                      "after": "scipy" in sys.modules}))
""")


def test_only_the_density_suite_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", ISOLATION_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 5
    assert result["before"] is False
    code, payload = result["density"]
    assert code == 0 and payload["passed"] and all(c["passed"] for c in payload["checks"])
    assert result["after"] is True


def test_adversary_is_exact_only():
    # the Monte Carlo copycat lives in harness; adversary keeps the closed forms
    tree = ast.parse((PACKAGE / "adversary.py").read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not modules & {"montecarlo", "samplers"}, modules


def test_chunk_layout_and_scratch_blocks_have_one_owner():
    # play reports the chunks it ran, and samplers._row_blocks cuts every
    # scratch block: no module works out either rule a second time
    for module, banned in (("harness", {"CHUNK", "chunk_rows", "_layout"}), ("verify", {"CHUNK", "_layout"})):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert not names & banned, (module, names & banned)
