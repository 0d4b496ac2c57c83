"""A ``sys.meta_path`` finder under which every ``scipy`` import fails.

Put first on ``sys.meta_path`` (and with no ``scipy`` module left in
``sys.modules``), it makes code run as it would where scipy is not
installed.  It imports nothing of ``repro``, so a fresh interpreter can
install it before the package is loaded.
"""

import importlib.abc


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)", name=name)
        return None
