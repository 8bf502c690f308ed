"""The package's export list names only what the package defines, so a
deletion that leaves a stale name behind fails here."""

import progsub


def test_every_exported_name_is_an_attribute():
    missing = [name for name in progsub.__all__
               if not hasattr(progsub, name)]
    assert not missing
    assert len(set(progsub.__all__)) == len(progsub.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from progsub import *", namespace)
    assert set(progsub.__all__) <= set(namespace)
