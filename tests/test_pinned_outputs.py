"""Pinned output digests of three small CLI runs.

Each test runs one ``phasekit`` subcommand and compares the sha256 of its
whole output tree (file names and bytes; the ``provenance`` entry of
meta.json, which names the library versions, is left out) with a pinned
value.  A refactor must leave every digest unchanged.  A change that alters
the numerics on purpose updates the pin in the same change, and its
CHANGES.md line gives the max-abs field difference against the old output.

The pins were taken with numpy 2.4 and scipy 1.17 on x86-64; other builds
may differ in the last bits of the FFTs and reductions.
"""

import hashlib
import json
import os

import pytest

from phasekit.cli import main

COMMON = """
[physics]
mu = 0.1
kappa = 0.1
gamma = 2.0

[bounds]
m0 = 1.4
"""

CASES = {
    # fixed time grid, a moving two-value profile
    "simulate-nsk": (COMMON + """
[grid]
n = 256

[time]
dt = 4e-4
t_end = 0.2
snapshot_every = 50

[init]
u0_mode = 1
u0_amp = 0.2
""", "3ed3131837ed4302867e06104165903d32f76c51431c7eada9134956eba93380"),
    # dt far above the CFL bound: every step is CFL-limited
    "simulate-bn": (COMMON + """
[grid]
n = 128

[time]
dt = 0.01
t_end = 0.5
snapshot_every = 20

[init]
u0_mode = 1
u0_amp = 0.2
""", "e3b15f286a481e3ad97066d673ee06ab9c8e352e42329d5f3ce5dd1344c3521f"),
    # the criterion-12 family: a BN reference and two NSK members
    "homogenize": (COMMON + """
[grid]
n = 256

[time]
dt = 4e-4
t_end = 0.02
snapshot_every = 10

[init]
v_minus = 0.8
v_plus = 1.6

[harness]
n_list = 2, 4
""", "22df07d86f46d06cd5c69baf579108381f1575386de4a83fd12b7b6005cc88af"),
}


def tree_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for dirpath, _, names in sorted(os.walk(out_dir)):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                blob = f.read()
            if name == "meta.json":
                meta = json.loads(blob)
                meta.pop("provenance")
                blob = json.dumps(meta, sort_keys=True).encode()
            digest.update(os.path.relpath(path, out_dir).encode() + b"\0")
            digest.update(hashlib.sha256(blob).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("command", sorted(CASES))
def test_output_tree_matches_pin(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PHASEKIT_THREADS", "1")
    text, pin = CASES[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert tree_digest(out) == pin
