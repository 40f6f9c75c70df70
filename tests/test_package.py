from pathlib import Path

import prunekit


def test_every_exported_name_resolves_once():
    # A stale entry in __all__ would only fail a star import.
    assert len(set(prunekit.__all__)) == len(prunekit.__all__)
    namespace = {}
    exec("from prunekit import *", namespace)
    assert all(name in namespace for name in prunekit.__all__)


def test_no_argument_rule_raises_a_bare_value_error():
    # Argument rules raise errors.InvalidArgument: cli.main catches only
    # PruneKitError, so a bare ValueError would end in a traceback.
    src = Path(prunekit.__file__).parent
    offenders = [f"{path.name}:{number}" for path in sorted(src.glob("*.py"))
                 for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
                 if "raise ValueError(" in line]
    assert offenders == []


def test_readme_package_layout_names_every_module_and_script():
    # Each file the layout block lists is the first word of its line.
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text(encoding="utf-8")
    block = text[text.index("## Package layout"):].split("```")[1]
    listed = {line.split()[0] for line in block.splitlines()
              if line.strip() and line.split()[0].endswith(".py")}
    modules = {path.name for path in (root / "src" / "prunekit").glob("*.py")}
    scripts = {path.name for path in (root / "scripts").glob("*.py")}
    assert listed == (modules - {"__init__.py", "__main__.py"}) | scripts
