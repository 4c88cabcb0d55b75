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
    ("rsu", 1, "58b26ed818200deae00e520c33d078d8c4ff585216732ea678a8aa5d460a3e04"),
    ("rsu", 2, "93d6cf2c4b78b7867389388dd19d9efed7c70ffdf921645f4864f316a0be7de8"),
    ("vehicle", 1, "f2b3077465b30d0d3ab2b2b57f6426bd4b44a8725962eeb2af0504c6d45205b7"),
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
        "0017ae0a0e4c6d88fe066f1cbf6bdcd0a793360425ef962de8b588b4028f6a90",
    ),
    (
        "limits.rot_rate = 0.002\nscenario.v2v_rate = 3.0\n",
        "aa1791d8dae7a167728e850f814eb2339d25e148f76f4507e946e0101f2b2177",
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
SWEEP_GOLDEN = "15973fe69d03971c3156b7286577104dca2941efb78ef6d1c65c4c4e2fc44897"


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
SUMMARY_GOLDEN = "2c32d203d2e469de1a193cbf715956142dfd9b57672e151868b56e07c21bd607"


def test_summary_json_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--seed", "1", "--steps", "2000", "--out", "out"]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "summary.json").read_bytes()).hexdigest()
    assert digest == SUMMARY_GOLDEN


# sha256 of the two charts ``drs-sim plot`` draws from the steps.csv of
# ``drs-sim run --seed 1 --steps 2000`` with control on and with control off.
PLOT_GOLDEN = {
    "rate_vs_cycle.svg": "b52b7cada493ce2dedf47c5f7edfef6de776d63e0e9f6f878798b031d63c3e73",
    "mean_rate.svg": "c260fe9a5da19465041d0d8c7bfcbc6ab78c34bf7520bd77569a0e0e06cb615a",
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
