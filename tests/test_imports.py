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


def _exported(tree) -> set:
    """The names a module lists in its `__all__`, which is written out."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_the_package_has_no_unused_imports():
    # a name an import binds must be read somewhere in its module, or be
    # listed in the module's __all__
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(set(bound) - read - _exported(tree))
        assert not unused, "%s: unused imports %s" % (
            path.name, ", ".join("%s (line %d)" % (name, bound[name]) for name in unused)
        )


def test_the_package_surface_is_pinned():
    # the value types, the two error types and the operations the CLI and the
    # paper's statements call; a new export is a deliberate edit here
    import shiftcalc

    assert shiftcalc.__all__ == [
        "AutomorphismVerdict",
        "CapacityError",
        "DiagonalElement",
        "PermutationUnitary",
        "PermutativeEndomorphism",
        "RefutationError",
        "SlidingBlockCode",
        "ad_unitary",
        "agree_on_diagonal",
        "apply_diag",
        "certify_automorphism",
        "code_apply_diag",
        "code_compose",
        "convolution",
        "degree",
        "en_inverse_search",
        "endomorphism",
        "enumerate_one_sided_automorphisms",
        "eventual_commutation",
        "extract_code",
        "fixture_suite",
        "is_in_ign",
        "orbit_permutation",
        "periodic_points",
        "property_p_data",
        "unitary_from_shift_automorphism",
        "weyl_class_equal",
    ]
    for name in shiftcalc.__all__:
        assert getattr(shiftcalc, name).__module__.startswith("shiftcalc.")
