"""Golden hashes of ``drs-sim run`` and ``drs-sim sweep`` output.

Any change to the simulated numbers or to the CSV format changes these
hashes.  A change that is meant to alter the output must update them and
say why; every other change must leave them as they are.
"""

import hashlib

import pytest

from drs_sim.cli import main

GOLDEN = [
    # (scenario.interferer, seed, sha256 of steps.csv); all other keys default
    ("rsu", 1, "e25b775e76124fb0e720289639c3f1bc58536a760b0e1e82d422404773e82daf"),
    ("rsu", 2, "b373d358c70ee5661cf33ab21b23680f6379e05ee4d8dd15c692afabd7423996"),
    ("vehicle", 1, "488079970843a44c00df59bae3d5ae3957b6c4224087bc8c11f21bf1b04614ab"),
]


@pytest.mark.parametrize("interferer, seed, digest", GOLDEN)
def test_steps_csv_hash(interferer, seed, digest, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"scenario.interferer = {interferer}\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["run", "--config", str(config), "--seed", str(seed), "--steps", "2000"]
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256((out / "steps.csv").read_bytes()).hexdigest() == digest


# sha256 of sweep.csv from ``drs-sim sweep --seeds 1,2 --steps 2000 --jobs 1``
SWEEP_GOLDEN = "9a383d4c5fee9e7ec3756735329c7d40ccbd8813ade1d96d0292bfb3c5d1a802"


def test_sweep_csv_hash(tmp_path):
    out = tmp_path / "out"
    args = ["sweep", "--seeds", "1,2", "--steps", "2000", "--jobs", "1", "--out", str(out)]
    assert main(args) == 0
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == SWEEP_GOLDEN
