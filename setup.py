"""Setup shim.

Kept so that ``pip install -e .`` works on environments without the ``wheel``
package (pip then falls back to the legacy ``setup.py develop`` code path
instead of building a PEP 660 wheel).  All metadata lives in setup.cfg.
"""

from setuptools import setup

setup()
