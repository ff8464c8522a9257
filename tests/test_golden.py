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
           "4b99f81a0351887b145dfb4a95f7a7b851924e77aa956c1a1049ef1b6ac7733d"),
    "gp_noisy": ({"id": "gp", "options": {"noise": {"seed": 7}}},
                 {"n_probes": 8, "n_steps": 100},
                 "ba7e3ba9f617bfd5be26364f9ec34abebd0f32386a13dc8e6adaf5cb08c6ad5b"),
    "external_quadratic": (EXTERNAL, {"n_probes": 6, "n_steps": 20},
                           "57a3eb9eb630a24a2c44e1e027ceb18d409581e540987ac6a2a011f99161a968"),
    "pbm1": ("pbm1", {"n_probes": 4, "n_steps": 4},
             "32441c970e27d59f4304b4c077c4deef50fcdd6ac7a1cb309bef678046285b11"),
    "pbm2": ("pbm2", {"n_probes": 8, "n_steps": 20},
             "0857e96e3e22dcb42296d3112254f23ec19dab36295545f4db7871e148478741"),
    "pbm3": ("pbm3", {"n_probes": 8, "n_steps": 20},
             "bb4fe4b15f8ddabc70fd1fc9084b50ac81c079f34521b939426223c6d7b39eb0"),
    "pbm5_6": ({"id": "pbm5", "options": {"n_elements": 6}}, {"n_probes": 10, "n_steps": 6},
               "18c0784c0f67bcb45c67b92bf394a4836b2b30ed292b28f323854d5959370be1"),
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
