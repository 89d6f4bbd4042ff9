"""Byte-identity guard: seeded CLI output files hashed against pinned digests.

For each family and list kind, seeds 0-4 each run ``gen-lists`` and then
``solve`` (default options) on a freshly constructed instance; the sha256
covers both output files and the solve exit code of every seed, in seed
order. The digests were recorded before the edge-ball kernel replaced the
all-pairs BFS cache, so any change to lists, colorings, swap plans or
selection records shows here.
"""

import hashlib

import pytest

from dsgraph.cli import main

# label -> (s, construct arguments)
FAMILIES = {
    "Q3": (3, ("--family", "hypercube", "--d", "3")),
    "Q4": (4, ("--family", "hypercube", "--d", "4")),
    "Q5": (5, ("--family", "hypercube", "--d", "5")),
    "Q6": (6, ("--family", "hypercube", "--d", "6")),
    "K4,4": (4, ("--family", "complete_bipartite_pow2", "--t", "2")),
    "K8,8": (8, ("--family", "complete_bipartite_pow2", "--t", "3")),
}

PINNED = {
    ("Q3", "sparse"): "be6d2d34790402b598e0122d5aa2f113fbfc686048c4c1c34c9803b48f805e88",
    ("Q3", "distance2"): "feecfc84aa2aa5caa0305432f958c995e128aee76aadbe9888edd69cb7eafbd5",
    ("Q4", "sparse"): "a54375150778a3b15190eee1149ca60310acef43a69cee1ece90cd3bd94cd073",
    ("Q4", "distance2"): "7910a2f3d7430ede8fe4c89174bfaa029973bee0ce278c35b6d34bd66f815d28",
    ("Q5", "sparse"): "259911ca2ad4f6af88fa282d5f6ca71ae4f980eb8199f1197890a1c395043053",
    ("Q5", "distance2"): "7d6d9f378b7089371f65b63e0f46054ca59c00a237afcd1ee1e3799c6018a955",
    ("Q6", "sparse"): "37cb1dac40562e1d308eda56fae91308fbe390962eb00fae211733f763076fc4",
    ("Q6", "distance2"): "0bdc64cf86f166f70526877053c386c31ea9c124354881d1a4e77dc3e6e6dc99",
    ("K4,4", "sparse"): "b0af14232836e29b4bd3e2d207c0573f0459c4a1454b82ca4058dde78a7e584f",
    ("K4,4", "distance2"): "2aa7f5793c0984b63f52bb3f95e57e4105c3b9a8753fa5f1df689d39331b1ca7",
    ("K8,8", "sparse"): "538c7355ed16fdb652717cfb22b05029a40abd2d4132d3cb755c8cc4032dd240",
    ("K8,8", "distance2"): "1350ce6c7bd74f032b38088a46e0bc43f4ee2c83a0f4438e057fa3306bad9324",
}


def chain_digest(work, family: str, kind: str) -> str:
    s, construct = FAMILIES[family]
    graph, lists, solved = (str(work / f"{x}.json") for x in ("graph", "lists", "solved"))
    assert main(["construct", *construct, "--out", graph]) == 0
    gen = ["--distance2"] if kind == "distance2" else ["--beta", f"1/{s}"]
    digest = hashlib.sha256()
    for seed in range(5):
        assert main(["gen-lists", graph, *gen, "--seed", str(seed), "--out", lists]) == 0
        code = main(["solve", lists, "--out", solved])
        for path in (lists, solved):
            with open(path, "rb") as fh:
                digest.update(fh.read())
        digest.update(str(code).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("family,kind", sorted(PINNED))
def test_seeded_cli_outputs_match_pinned_digest(tmp_path, family, kind):
    assert chain_digest(tmp_path, family, kind) == PINNED[family, kind]
