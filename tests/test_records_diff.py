from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "records_diff.py"


def _records_diff():
    spec = importlib.util.spec_from_file_location("records_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_refuses_a_nonempty_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "oracle_grid_s0").mkdir(parents=True)
    (out / "oracle_grid_s0" / "stale.json").write_text("{}")
    before = sorted(out.rglob("*"))
    assert _records_diff().main(["run", str(out)]) == 2
    assert sorted(out.rglob("*")) == before
    assert "exists and is not an empty directory" in capsys.readouterr().err
