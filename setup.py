"""Legacy setup shim.

This environment has no network access and no ``wheel`` package, so PEP 660
editable installs (which build a wheel) are unavailable; this shim lets
``pip install -e . --no-use-pep517 --no-build-isolation`` fall back to the
classic ``setup.py develop`` path.  There is no other packaging metadata:
setuptools auto-discovers the ``src/repro`` package and names it ``repro``,
version ``0.0.0``.
"""

from setuptools import setup

setup()
