"""Golden SHA-256 digests of record.json for seven short runs, and of
summary.csv and summary.txt for one sweep and one single run.

Byte-identical records are guaranteed per platform and numpy build (see the
README), so the digests are pinned to the build they were taken on and the
test skips on any other. A digest that changes on that build means a run's
canonical bytes moved; update it only for a change that means to move them.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys

import numpy as np
import pytest

from cfobench.cli import main

BUILD = {"python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}

EXTERNAL = {"id": "external", "options": {
    "command": [sys.executable, "-m", "cfobench.external", "quadratic"],
    "bounds": [[-3.0, 3.0]] * 3}}

RUNS = {  # name: (objective block, cfo block, record.json SHA-256)
    "gp": ("gp", {"n_probes": 8, "n_steps": 100, "gamma": 0.4},
           "40f33972d6082681e88cb7931936a092abcdc605eb002521b9c8d654936e9baa"),
    "gp_noisy": ({"id": "gp", "options": {"noise": {"seed": 7}}},
                 {"n_probes": 8, "n_steps": 100},
                 "eea2becdd98041a56f87afe03d5c113d1fcdf36f1e6a10b1afc68c8257006267"),
    "external_quadratic": (EXTERNAL, {"n_probes": 6, "n_steps": 20},
                           "3445c9387902d140e475e3134f0bfc3a45418105c0631d765dae551d38b44932"),
    "pbm1": ("pbm1", {"n_probes": 4, "n_steps": 4},
             "adc8d61f002861e1d0769a90fc440c1c3ea39c0086c010e43e1a63338eb5883c"),
    "pbm2": ("pbm2", {"n_probes": 8, "n_steps": 20},
             "fa1dc0112af9403a27e20832dbf0531bf460e9148b7bffc3101ed9ff29f9987a"),
    "pbm3": ("pbm3", {"n_probes": 8, "n_steps": 20},
             "f730dc561b4c401b4611503983754e21891ac682ac0d61e9bec2a50b09435fcd"),
    "pbm5_6": ({"id": "pbm5", "options": {"n_elements": 6}}, {"n_probes": 10, "n_steps": 6},
               "62a692498519402464efc3fb6789878d1b711e9f68b959f2f2e1d415bd8eb525"),
}


SUMMARIES = {  # name: (command, config blocks, summary.csv SHA-256, summary.txt SHA-256)
    "sweep_gamma": ("sweep", {"objective": "sgo", "cfo": {"n_probes": 6, "n_steps": 40},
                              "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 3}},
                    "d3c1fda2efbc6f7bab917bc6e89ee849fb1f71b779aefe79f672443d95082ef6",
                    "02154c0c38ec49b308bde588b2b054535b7d5ed5b0cdcaaf3ec5e04cf5f4f20a"),
    "run_param": ("run", {"objective": "gp", "cfo": {"n_probes": 8, "n_steps": 100, "gamma": 0.4}},
                  "b23d9b7749541453420e59d0f4560cda1ca7e1ad9002bb13e3eddaf2714dfeca",
                  "8ead10406bbaa0ceb7f28a49640519fee87541956ef0867096aec3ae1f56c3d4"),
}


def _this_build() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def record_digest(tmp_path, objective, cfo) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"objective": objective, "cfo": cfo,
                                  "outputs": {"dir": str(tmp_path / "out")}}))
    assert main(["run", "--config", str(config), "--quiet"]) == 0
    return hashlib.sha256((tmp_path / "out" / "record.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_record_digest(tmp_path, name):
    if _this_build() != BUILD:
        pytest.skip(f"digests were taken on {BUILD}, this build is {_this_build()}")
    objective, cfo, digest = RUNS[name]
    assert record_digest(tmp_path, objective, cfo) == digest


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_summary_digests(tmp_path, name):
    if _this_build() != BUILD:
        pytest.skip(f"digests were taken on {BUILD}, this build is {_this_build()}")
    command, blocks, csv_digest, txt_digest = SUMMARIES[name]
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(blocks, outputs={"dir": str(out)})))
    assert main([command, "--config", str(config), "--quiet"]) == 0
    assert [hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("summary.csv", "summary.txt")] == [csv_digest, txt_digest]
