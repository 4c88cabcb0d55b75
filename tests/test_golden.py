"""Golden hashes of ``drs-sim run`` and ``drs-sim sweep`` output.

Any change to the simulated numbers or to the CSV format changes these
hashes.  A change that is meant to alter the output must update them and
say why; every other change must leave them as they are.  Each steps.csv
hash holds for both ways a run steps its trajectory: ahead of the yaw loop in
a forked producer, and in process where ``os.fork`` is missing.
"""

import hashlib
import os

import pytest

from drs_sim.cli import main

GOLDEN = [
    # (scenario.interferer, seed, sha256 of steps.csv); all other keys default
    ("rsu", 1, "ef0bdd4553fbd3ea9595c276fc0b5f0260d78dfac8853dc95f35823094bbf72e"),
    ("rsu", 2, "893b09e63cf2d3d44558616f7c9471dfd9232e3c343a3577e37679237a2a2fd2"),
    ("vehicle", 1, "ec0b8330cd613672d271dbdf2599cee9708e81b56774916574610f3cb992c520"),
]


@pytest.mark.parametrize(
    "interferer, seed, digest", GOLDEN, ids=[f"{kind}-{seed}" for kind, seed, _ in GOLDEN]
)
def test_steps_csv_hash(interferer, seed, digest, tmp_path, forks, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text(f"scenario.interferer = {interferer}\n", encoding="utf-8")
    args = ["run", "--config", str(config), "--seed", str(seed), "--steps", "2000"]
    assert steps_csv_digests(args, tmp_path, forks, monkeypatch) == [digest, digest]


def steps_csv_digests(args, tmp_path, forks, monkeypatch):
    """sha256 of the steps.csv that ``args`` writes with a forked producer, then in process."""
    digests = []
    for transport in ("forked", "in-process"):
        if transport == "in-process":
            monkeypatch.delattr(os, "fork")
        out = tmp_path / transport
        assert main(args + ["--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / "steps.csv").read_bytes()).hexdigest())
        assert forks == [1]  # the served run forked its producer once, the in-process one not
    return digests


# (config lines, sha256 of steps.csv) for ``drs-sim run --seed 1 --steps 2000``:
# control off, and a 1 mrad yaw budget with frequent pairing, where 1362 of
# the 1995 served steps take the fallback search and 633 an analytic null.
GOLDEN_CONFIGS = [
    (
        "run.orientation_control = off\n",
        "f408873d906efa1d489baf4124205afe6d4dd9a31d21264efc7425debde68b76",
    ),
    (
        "limits.rot_rate = 0.002\nscenario.v2v_rate = 3.0\n",
        "cae986eb22bafc99e94a9eec25e3cf1bfa341ffeae052a59518d0fcb8db863ea",
    ),
]


@pytest.mark.parametrize(
    "lines, digest", GOLDEN_CONFIGS, ids=["control-off", "fallback-heavy"]
)
def test_steps_csv_hash_of_config(lines, digest, tmp_path, forks, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text(lines, encoding="utf-8")
    args = ["run", "--config", str(config), "--seed", "1", "--steps", "2000"]
    assert steps_csv_digests(args, tmp_path, forks, monkeypatch) == [digest, digest]


# sha256 of sweep.csv from ``drs-sim sweep --seeds 1,2 --steps 2000 --jobs 1``
SWEEP_GOLDEN = "2e434c8686068059f4774252c47fb328b074f96afc1db8a6e02729aee76f67de"


# The serial sweep and two forked workers must write the same bytes.
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_csv_hash(jobs, tmp_path):
    out = tmp_path / "out"
    args = ["sweep", "--seeds", "1,2", "--steps", "2000", "--jobs", jobs, "--out", str(out)]
    assert main(args) == 0
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == SWEEP_GOLDEN


# sha256 of summary.json from ``drs-sim run --seed 1 --steps 2000 --out out``
# on the default config, run from a fixed directory so the echoed
# run.output_dir is the relative "out".
SUMMARY_GOLDEN = "79d07a2fabf3398bcba9ef3d0391a1e3e75a0182f10e5b0dafa93e21f1c75ecc"


def test_summary_json_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--seed", "1", "--steps", "2000", "--out", "out"]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "summary.json").read_bytes()).hexdigest()
    assert digest == SUMMARY_GOLDEN


# sha256 of the two charts ``drs-sim plot`` draws from the steps.csv of
# ``drs-sim run --seed 1 --steps 2000`` with control on and with control off.
PLOT_GOLDEN = {
    "rate_vs_cycle.svg": "b52b7cada493ce2dedf47c5f7edfef6de776d63e0e9f6f878798b031d63c3e73",
    "mean_rate.svg": "d7e6a276788a48505987f501c425538a38c2517ce5c1f19ff6e8c616da59e2b2",
}


def test_plot_svg_hashes(tmp_path):
    csvs = []
    for mode in ("on", "off"):
        out = tmp_path / mode
        args = ["run", "--seed", "1", "--steps", "2000", "--orientation-control", mode]
        assert main(args + ["--out", str(out)]) == 0
        csvs.append(str(out / "steps.csv"))
    plots = tmp_path / "plots"
    assert main(["plot", *csvs, "--out", str(plots)]) == 0
    digests = {
        name: hashlib.sha256((plots / name).read_bytes()).hexdigest() for name in PLOT_GOLDEN
    }
    assert digests == PLOT_GOLDEN
