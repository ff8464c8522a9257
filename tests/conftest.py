from __future__ import annotations

import pytest

from cfobench.acceptance import _package_first_on_pythonpath


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_checkout():
    """Tests spawn `python -m cfobench.external` children. pyproject's pytest
    pythonpath setting reaches only this process, so hand the same package
    to the children through PYTHONPATH."""
    with _package_first_on_pythonpath():
        yield
