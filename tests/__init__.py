"""The test suite; a package so its helpers import as ``tests.conftest``
(``benchmarks/conftest.py`` also claims the bare ``conftest`` name)."""
