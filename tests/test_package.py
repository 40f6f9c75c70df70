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
