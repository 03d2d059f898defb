"""The package's public names: each module's __all__, exported once."""

import dmkit
from dmkit import classical, disk, errors, lti, multiloop, specnorm

MODULES = (errors, lti, specnorm, classical, disk, multiloop)


def test_package_exports_every_module_list_once():
    names = [name for module in MODULES for name in module.__all__]
    assert dmkit.__all__ == ["__version__"] + names
    assert len(set(dmkit.__all__)) == len(dmkit.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dmkit, name) is getattr(module, name), (module.__name__, name)
    assert {"resolve_points", "INTERIOR_DISK", "HALF_PLANE", "EXTERIOR_DISK"} <= set(dmkit.__all__)

