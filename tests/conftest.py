"""Fixtures shared by every test module."""

from .helpers import force_kernel  # noqa: F401  (registers the fixture)
