"""Package-wide guards: checks that survive ``python -O``, and no numpy."""

import ast
import subprocess
import sys
from pathlib import Path

import albanese

PACKAGE = Path(albanese.__file__).parent


def test_no_assert_statements():
    """``python -O`` strips asserts, so every check in the package must raise."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_cli_import_does_not_load_numpy():
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import albanese.cli; sys.exit('numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "numpy was imported"
