import ast
import sys
from pathlib import Path

ALLOWED = set(sys.stdlib_module_names) | {"click", "shiftcalc"}
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shiftcalc"


def test_the_package_imports_only_the_standard_library_and_click():
    # pure Python: numpy may be installed, but the package does not declare it
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, "%s imports %s" % (path.name, name)


def test_endo_does_not_import_bridge():
    # bridge imports endo; certification reads codes and builds its inverse
    # without bridge, so the two modules form no cycle
    tree = ast.parse((PACKAGE / "endo.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules = [node.module] if node.module else [alias.name for alias in node.names]
            assert "bridge" not in modules
