import prunekit


def test_every_exported_name_resolves_once():
    # A stale entry in __all__ would only fail a star import.
    assert len(set(prunekit.__all__)) == len(prunekit.__all__)
    namespace = {}
    exec("from prunekit import *", namespace)
    assert all(name in namespace for name in prunekit.__all__)
