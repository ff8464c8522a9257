"""Golden SHA-256 digests of record.json for ten short runs, of
summary.csv and summary.txt for one sweep and one single run, of summary.csv
and every record.json of six sweeps, and of every
text file one short 2-D run writes with all its per-step outputs on, of
the ring's coupling matrix K, which every pbm3 power is read from, and of
the best record of each of criterion 3's analytic gamma sweeps.

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

from cfobench.acceptance import _analytic_sweep
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
    # 120 probes in 30-D: the pair work splits into row blocks, the last one
    # short, and each block mirrors the distances of the rows before it
    "schwefel_226_120": ("schwefel_226", {"n_steps": 6},
                         "ae097873cb46667a23c8da8f20d95cf3c57821db746d51169d448018cb78f5bf"),
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


SWEEPS = {  # name: (config blocks, summary.csv SHA-256, each run's record.json SHA-256)
    # runs that stop at different steps, from 60 to 173
    "gp_gamma_early": ({"objective": "gp", "cfo": {"n_probes": 8, "n_steps": 200,
                                                   "early_termination": True},
                        "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 11}},
                       "3666f4e958a3fb54dc5673ff903dec55243598fe866e0255fe5150d2cd3d56bd",
                       ["35eef05d244be103c22f208a9689e91d21ab4df98acc3a15b7d84259e8097484",
                        "34c57d8fe5afac64564fd15211faf3fedd12eb637c6840a716482f36905015f5",
                        "3d47e90fe3ba9c3d4e45325290d8eb9847168261a393a765b9f7ff7061f0ec3a",
                        "eb9168ea3a7b34d534ff5925a2a07267beca3892420d2960ef3a0c73e8c8676f",
                        "62a64ceeb6efb31c29d6b2223e4e9acc24db93689b1425e1e0635efed2b75393",
                        "11fd236cbb962f9a39ca23048ce33ca906c632d06f420097b49c0e4a1224da9d",
                        "741141560e129ac4a4b3de8b1f0186efc1037731ae9b560d6a6c8c642b4e88de",
                        "aac4814cec599a0974151e12c6cfbb9076e55b2cbddea3b30bda792e4d8d963d",
                        "bb593d23707d1a837b8f3c3740be01396a342bd455ba5f966f039b07cbae7377",
                        "dd0cf56d547e667277a726cd560e25ef26bd3711a902febb0033fe35c4a48376",
                        "88137409efc97282a400b7795d860b14f86aff43cfd4a148ff922e15bef25aa6"]),
    # runs 2, 6, 9 and 10 saturate at their last step, and stop saturated
    "gp_gamma_saturated_at_last": ({"objective": "gp", "cfo": {"n_probes": 8, "n_steps": 60,
                                                             "early_termination": True},
                                    "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0,
                                              "count": 11}},
                                   "54b09722b6664dd9e4f622ca3a8aced038d4ddf6b84f7e07dd4ab2df5fa4a9a2",
                                   ["5bb88912c869ddfccbe4654d341b523fef6d08732930b85b4c9bc59e262f87f0",
                                    "07d4ddad644e8c1040190963e3425f505fed64515d3d0fab7883314d1888e465",
                                    "a3a68d9a6f6ee07e278e06e0c6968d5a7a6dd9f1cc69c85c0842ef23d38aea63",
                                    "86a9a5d8ce3f6501cc73eb05646c04702fd2a4245b2d97e35024ae9026db5aab",
                                    "0e9e0be2a524447b80866dc0e88ad34db76322a9b0464d7554a2391e83ed6b27",
                                    "87aeb7f4143967bdb5a343fd2a8e19dceb4b95eecd29a81db69db4d0d6acba77",
                                    "e0bdb9a51c6e0b739d6327099af0442f82820aa2c55ad1b85401a779ce736369",
                                    "9cd4c013e59bfbb742bb96c9660696b2e1d7fdfe58d706cf4f269bd287f9f4ee",
                                    "6a3f2e40057f962d2d628ede805ac7d5aede6fc559b340cc70c7590815fe65fc",
                                    "b5a5dc2e64918db3891506db1155430c019f4dfbc1fd361459899d9f53c0e271",
                                    "ae89efca9b37fdd96bc02b601fcc7a8c98a7539eab841ba323c8d919ba8ba01e"]),
    # every run restarts the same seeded noise stream
    "gp_noisy_gamma": ({"objective": {"id": "gp", "options": {"noise": {"seed": 3, "sigma": 0.5}}},
                        "cfo": {"n_probes": 8, "n_steps": 30},
                        "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 4}},
                       "05c613c99a57b11e88e89e94692e7b281d12622fc3aac6becca0e56fb56120ce",
                       ["814adb9538d383dfbd3ab0b72103443391e42d280f36a93f2dc8b8577e6758cb",
                        "29497d93817ecef22edd9005fc5ee4ee38fcc0deb298964062dc7e3bc90f286b",
                        "2d8deda654d95bdf629ba18b93e5302b0a6f0116cf2a453501d575ac61655c90",
                        "76927c79f2de074dd3d89b0534549f491307e6f0a07a587ba9d7418521077fcb"]),
    # each run owns its noise stream
    "gp_noisy_seed": ({"objective": {"id": "gp", "options": {"noise": {"sigma": 0.5}}},
                       "cfo": {"n_probes": 8, "n_steps": 60},
                       "sweep": {"parameter": "seed", "start": 1, "stop": 4, "count": 4}},
                      "043ef34dab0384dba428fcdffe0f080502b4f5e5064424f28deafed21c34c0e4",
                      ["b90e4f02dc346682372ee3e65e3df1a6053ea81af1a5c5b2b587dd2c4336342f",
                       "46f20ac4a69d09910fa311285131a3ae8979f71c9eb13bd6d1bf85f5643f096a",
                       "5935efb146fe6e26baaf090bd948832d3ec7eb78393e4e003c487f7deb43a2c6",
                       "dcd82d00ad0ed752350508f1349ab237103ac0a2793e0f4a308676acaef14d93"]),
    # one group of three 120-probe 30-D runs, each in row blocks
    "schwefel_226_gamma": ({"objective": "schwefel_226", "cfo": {"n_steps": 4},
                            "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 3}},
                           "82c2c929d6409ecb920a30d3013288efa50ae036d5e62bf91ef09a1d1b1f43aa",
                           ["7caa2ae79f95ae24229d58d268610298f15aee228fe6eb883fa1f5b042e68c09",
                            "4f398ae885b66b2e22b81e2980f0aec4ca16d5f8cb93ea5f1b541e93810bd7d7",
                            "922abfaae7d2be3d1553fc8fc20187f5cc0d1f51477ac04296b51f7c54dc6619"]),
    # one group of seven 40-probe 10-D runs: whole-run blocks of four and three
    "griewank_10d_gamma": ({"objective": {"id": "griewank", "options": {"n_dims": 10}},
                            "cfo": {"n_steps": 10},
                            "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "count": 7}},
                           "5684e7d52b3da46eed093176f73bc9929048a453fbdb4fc0739b62757efdbb0a",
                           ["fcbd1e7920853334bdea450814d9151e2599b971ec7fd786741f1d961bef1edd",
                            "f1a717a607d269fe2f981cfb8233fda8d382667437c8dca54c47b2c7ad32d564",
                            "485dcf473da5dbe64a5f30da9de9d25acaafb75c6a1661354662c9e760106c45",
                            "40fd80b1857a97b8eeea66149fcb7b83e2a119157dcd01112e4a1107f0a1dba7",
                            "c307b78732aa3d245ae44bf605f1a826094c7c506467bb4bccf8552cf6666847",
                            "175283f824474eddefd324b9aedeba5e1861613fdc40537616822515c1995660",
                            "8b79d8630caa5fd21c1b35dd71cae5e2f0c737a522b083c926f72947c895af57"]),
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


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_digests(tmp_path, name):
    if _this_build() != BUILD:
        pytest.skip(f"digests were taken on {BUILD}, this build is {_this_build()}")
    blocks, csv_digest, record_digests = SWEEPS[name]
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(blocks, outputs={"dir": str(out)})))
    assert main(["sweep", "--config", str(config), "--quiet"]) == 0
    assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == csv_digest
    assert [hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("run_*/record.json"))] == record_digests


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


ANALYTIC_BESTS = {  # id: (best gamma, SHA-256 of the best record's to_json())
    "gp": (0.4, "4a43f62270cfdba9dcb21886838a228d042dbe1e61fccb61eec720ca74d52f8f"),
    "himmelblau": (0.7, "1f77323e700a899162278e741d1e5ca225abb9d977c94fff6b78642944f1816f"),
    "parrott_f4": (0.0, "c2491c1efbc064e309836af25b3960ad23785e273e84c3513c4fe129e64c6408"),
}


@pytest.mark.parametrize("func_id", sorted(ANALYTIC_BESTS))
def test_analytic_sweep_best(func_id):
    if _this_build() != BUILD:
        pytest.skip(f"digests were taken on {BUILD}, this build is {_this_build()}")
    record, gamma, _ = _analytic_sweep(func_id)
    digest = hashlib.sha256(record.to_json().encode()).hexdigest()
    assert (gamma, digest) == ANALYTIC_BESTS[func_id]
