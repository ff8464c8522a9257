"""Golden SHA-256 digests of record.json for nine short runs, of
summary.csv and summary.txt for one sweep and one single run, and of every
text file one short 2-D run writes with all its per-step outputs on, and
of the ring's coupling matrix K, which every pbm3 power is read from.

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

from cfobench.antenna import CouplingMatrix, circular_array_spec
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
    # the force update away from g=2, delta_t=1, alpha=beta=2 and n_sat=3
    "colville_forces": ("colville", {"n_probes": 8, "n_steps": 100, "g": 5.0, "delta_t": 0.75,
                                     "alpha": 1.5, "beta": 3.0, "n_sat": 2},
                        "eefeabedbabe692cb82be29115f4deb922dd55fd2ead9e1b63c2ac1ff1252ec1"),
    # g * sum overflows to +-inf accelerations, which retrieval absorbs
    "gp_g_overflow": ("gp", {"n_probes": 8, "n_steps": 20, "g": 1e308},
                      "b4e3f03819d1426b5bd92df858615c4ffa82e8cd36c68c6f0762347c116e87db"),
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


TEXT_RUN = {"objective": "gp", "cfo": {"n_probes": 6, "n_steps": 4, "gamma": 0.4},
            "outputs": {"fitness": True, "davg": True, "best_probe": True,
                        "probe_snapshots": True, "trajectories": True}}
TEXT_DIGESTS = {  # path under the output directory: SHA-256
    "best_probe.txt": "c33da0bab27570d8d0484368cadcff2caa437fd8de2cd6a19ac432383fa6117f",
    "davg.txt": "935872384e5366fe0616ff914ee0bfd9e4761f35dd72ca4fc4db359b550534af",
    "fitness.txt": "10f97727e4b2ea89c2179abda0fbb94cd558515bf780631d2595aaa5c4ffdbd8",
    "probes/step_0000.txt": "9ce1c10a5097016bbbafd82109e49d6bb5d11dee44b12abeae881865601b2867",
    "probes/step_0001.txt": "9ce1c10a5097016bbbafd82109e49d6bb5d11dee44b12abeae881865601b2867",
    "probes/step_0002.txt": "ea1f84140af806dc9dc80008837f78cf3773b1d7f8129a27d02bf37f6da67925",
    "probes/step_0003.txt": "5335b25380bb40946776a9429a020b71dc12b8f02e74a16c797b3af42912a363",
    "probes/step_0004.txt": "efa5968f360d7a0957580c9eca4ec6aeba1e4eee3e33099e8cf2f17f433afcae",
    "summary.txt": "e05f8503a7bfb17d9aced4695744bf8271d9310963e7b76d1c1190cb20b6e595",
    "trajectories/probe_01.txt": "7b9c1a5b86a0309bf24b79a84e5e0026183aa3e14f1e500596e344586aed9d32",
    "trajectories/probe_02.txt": "4c9560155c780925d3fb49d4ac0dcf1470695aa26cdb49a08fc026d2b5646844",
    "trajectories/probe_03.txt": "1ed63ff0260d0746d04bd0e07e5d8affdc052913cc4e7735c14ca07bea1bd3f7",
    "trajectories/probe_04.txt": "0cd179667eb8a51f372a82fc2d08ababaeb6c66b2df142c87dd260c4890fa490",
    "trajectories/probe_05.txt": "845f3d647a407739e4212b955ef700c0accfc1f4555aa223792f8090cedf5600",
    "trajectories/probe_06.txt": "958cb52b18a459d47f3df19dc9cefebaded4e789161e85cb1098c0eb755c59f7",
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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


def test_text_output_digests(tmp_path):
    if _this_build() != BUILD:
        pytest.skip(f"digests were taken on {BUILD}, this build is {_this_build()}")
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TEXT_RUN, outputs=dict(TEXT_RUN["outputs"], dir=str(out)))))
    assert main(["run", "--config", str(config), "--quiet"]) == 0
    assert {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*.txt")} == TEXT_DIGESTS


# the bytes of CouplingMatrix(circular_array_spec(0.0))'s K at 256 x 512
K_DIGEST = "287290ac92fb342c5dc64a1df63e0782753d3cda549699e6ed69b703b1a78549"


def test_ring_coupling_matrix_digest():
    if _this_build() != BUILD:
        pytest.skip(f"digests were taken on {BUILD}, this build is {_this_build()}")
    k = CouplingMatrix(circular_array_spec(0.0))._build(256, 512)
    assert (k.shape, k.dtype) == ((8, 8), np.complex128)
    assert hashlib.sha256(k.tobytes()).hexdigest() == K_DIGEST
