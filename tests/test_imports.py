from __future__ import annotations

import subprocess
import sys

# Runs in a fresh interpreter, because this test process has long imported
# numpy. An external evaluator child imports cfobench.external, so that
# import path stays free of numpy; the package exports load on first access.
IMPORT_GRAPH = """
import sys
import cfobench
assert "numpy" not in sys.modules, "import cfobench imported numpy"
import cfobench.external
assert "numpy" not in sys.modules, "import cfobench.external imported numpy"

from cfobench import objectives
from cfobench.external import ExternalObjectiveError
assert objectives.ObjectiveError is cfobench.ObjectiveError
assert ExternalObjectiveError.__bases__ == (cfobench.ObjectiveError,)

from cfobench import *
for name in cfobench.__all__:
    assert globals()[name] is getattr(cfobench, name), name
try:
    cfobench.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown attribute resolved")
"""


def test_external_imports_no_numpy_and_every_export_resolves():
    proc = subprocess.run([sys.executable, "-c", IMPORT_GRAPH],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
