"""Default CLI output, pinned byte for byte: the sha256 of stdout and the exit code.

A change that is meant to leave every output alone must leave these digests
alone. A change that alters an output on purpose updates the digest here and
says why.
"""
import hashlib

import pytest

from oddgon.cli import main

GOLDEN = [
    ("surface --n 7", 0, "674c3be75e44d426cf0a78a5e2cf64c7f641d1425c734cc90b953391447d7908"),
    (
        "trace --n 5 --edge S2 --t 0.55 --theta 0.3141592653589793",
        0,
        "aea788e817eb1728d017e9fda4b18416711bd1b8d14aca1e8aed9a6f1ce2da60",
    ),
    (
        "trace --n 9 --edge S4 --t 0.2939880348624208 --theta 2.094395215987957",
        0,
        "c830730ab6d48a33b47e225864ee01e3324823ea5bb81d5d74f46e9256fb7fe6",
    ),
    (  # a corner hit
        "trace --n 5 --edge S2 --t 0.5 --theta 2.1225616175277833",
        1,
        "59931cbe7b8ba171660f95beb35463a69f4adccca38161295f7ebca05a29ba15",
    ),
    (
        "derive-geometric --n 15 --edge S3 --t 0.31 --theta 4.1 --crossings 300",
        0,
        "5f25f6e0f2913536a9563cd3f62957ac2b0d15b4e4e3db03bdcf9f2d564fb117",
    ),
    (
        "derive --seq BECE --cyclic --method diagram --format json",
        0,
        "d639ad53305a16a310619320b00da0eabac47d36b1c668ee559ca0d24c68ddaa",
    ),
    (
        "diagram --n 7 --stage primed --format dot",
        0,
        "db38aca11e9408dec3925da5c5774b12f78eb0293256e6a234b88cc0b23660db",
    ),
    ("diagram --n 9 --stage arrows", 0, "94249bc7012f6647e5d4bc840f65ce6b96e219ac07997cb6274653572b0b2324"),
    ("guide --n 9", 0, "29ecdf5f547c36482ccc79baa909749a005c8893bb85ca7bd87c9046eb8076a5"),
    (  # windows_checked is the 14 arrows walks of WALK_LEN = 3 letters
        "verify --n 5 --checks identities,moduli,reassembly,equivalence,torus --seed 3",
        0,
        "f4b9f336e9aedf048598d8ecc47fe1c6e91f4c41c7520c29b055088062db5edc",
    ),
    ("torus derive --slope 1/3", 0, "fcfa33c6324fa176a3b6d68d0d914e0d2880b31dda7da469d105a159c243f70c"),
    ("torus trace --slope 2/5", 0, "9a59319e5a29b2864fd4a456bf41cad8d58581bfff21ce13a80c5c51758606ed"),
    (
        "render --n 5 --theta 0.31 --aux --primed",
        0,
        "e6e8384b5fee23b5bebec64b746bb7c141856fdce5248f02c08285eb6ef2078f",
    ),
    ("render --n 7 --what guide", 0, "884de040917843360cf89360b647db8bfd8b4926060c5db520a0eea4e6b357ed"),
    (
        "diagram --n 25 --stage primed --format dot",
        0,
        "2e099c31f5b737b03f739ad86b33fc4a8787576473a354653c15c67377b12ff4",
    ),
    ("diagram --n 15 --stage dual", 0, "cb862f5bb53ac0df68e8e5277d69c63c93485894c71ab12237e940ec7164e00b"),
    ("diagram --n 11 --stage augmented", 0, "021b6d47e6fbe88dce86e9c5f3909cd47e7c1e760cda2a7f32c09791a93c916e"),
    (  # periodic: the BECE orbit
        "derive-geometric --n 5 --edge S2 --t 0.55 --theta 0.3141592653589793",
        0,
        "822ac11c6ba32dfe8708c6f4c728d1f96cdfcba036145a3c7bcb6063cd9c5b54",
    ),
    ("torus derive --theta 0.5 --crossings 50", 0, "fbec92e7eaa5d57c51f6850513d33159c253478de9e87ece03c9325cea60ce85"),
    ("torus trace --theta 0.5 --crossings 30", 0, "8710cee216876ad95bf308fb021a444f8d1a85e1543647968e3c96d5c4e8b97f"),
    (  # periodic, a bound far past the first return
        "torus trace --slope 1/3 --crossings 2000",
        0,
        "a622a5c788ab64a26a1ca489f9de1570d482afe124bb68004b1359c6db50317b",
    ),
    (  # a start on a vertical lattice line
        "torus derive --slope 2/5 --start 0,0.3",
        0,
        "6122fd549ff7b9ceac738cc2fc7e1112ba2fbca9904ed712c92e95817e154153",
    ),
    (  # open, both direction components negative
        "torus derive --theta -2.5 --crossings 40",
        0,
        "0b4512049720989f095218a179ecf08b73af5bfceadea7b164c3da908df8e811",
    ),
    (  # the BECE orbit drawn closed, with all four segments
        "render --n 5 --theta 0.3141592653589793",
        0,
        "5830c36f15d14f501166c98521b07f028a65ba5c19654eb2ff4103dfda559f72",
    ),
    # the primed pieces, and the node edges' primed pairs, at the largest n
    ("surface --n 25", 0, "91be0c2edcaa40ac65044f321710bfbdb06b8b8825d415eeffb87d04991f89b1"),
    (  # the guide dots over a trajectory
        "render --n 7 --theta 0.31 --guide",
        0,
        "05b9aa2fc5612121d86a5e07402fd1e95c35bda06865c4311444db59d72dc478",
    ),
    (  # 1e-10 rad from pi: the primed crossings at the window's end are kept
        "derive-geometric --n 5 --edge S1 --t 0.36546834457545097 --theta 3.141592653489793 --crossings 400",
        0,
        "8d4ceced85adad92e3fa03cd1f318372c1bc12cc5a2080c9a5a599c8fc931003",
    ),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_default_output_is_byte_identical(capsys, command, code, digest):
    assert main(command.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
