"""Golden outputs: `pave --format json` and `verify --all-hess` must stay
byte-identical.

Each case runs the CLI in-process and compares the SHA-256 of its stdout
with a digest recorded from a known-good version of the package.  The matrix
covers every operator kind in type A on four spaces, the other families on
the Peterson (and, for B3, Borel) space, all applicable paths, and nilpotent
cases above rank 3, recorded when the formula path took orbit roots there
from a randomized conjugation; it now takes them from an exact closure at
every rank, with the same digests.  The formula cases are also run with the
conjugation engine patched to raise.  The verify cases pin the exit code and
stderr too.  A digest changes only when an output does; refresh one only for
a deliberate change of output.
"""

import hashlib

import pytest

from hesspave import cli, orbit_oracle
from hesspave.polynomial import Poly

_A3_OPERATORS = (
    ("--regular-nilpotent",),
    ("--semisimple", "regular"),
    ("--semisimple", "1"),
    ("--nilpotent", "2,1,1"),
    ("--nilpotent", "2,2"),
    ("--general", "x:2|y:1,1"),
    ("--general", "x:2,1|y:1"),
)
_CLASSICAL_OPERATORS = _A3_OPERATORS[:3]


def _cases():
    out = []
    for op in _A3_OPERATORS:
        methods = ("formula", "oracle")
        if op != ("--semisimple", "1"):
            methods += ("tableau",)
        for hess in ("peterson", "h=2,3,4,4", "h=3,3,4,4", "full"):
            for method in methods:
                out.append(("A", "3", op, hess, method))
    for fam, rank in (("B", "3"), ("C", "3"), ("D", "4")):
        for op in _CLASSICAL_OPERATORS:
            for method in ("formula", "oracle"):
                out.append((fam, rank, op, "peterson", method))
    for op in _CLASSICAL_OPERATORS:
        for method in ("formula", "oracle"):
            out.append(("B", "3", op, "borel", method))
    # ranks where the formula path once used randomized orbit roots
    out += [
        ("A", "4", ("--nilpotent", "3,2"), "h=2,3,4,5,5", "formula"),
        ("A", "4", ("--general", "x:3|y:2"), "h=2,4,4,5,5", "formula"),
        ("C", "4", ("--regular-nilpotent",), "peterson", "formula"),
        ("A", "5", ("--nilpotent", "2,2,1,1"), "h=3,3,4,5,6,6", "formula"),
    ]
    return [
        ("pave", "--family", fam, "--rank", rank, *op, "--hess", hess,
         "--method", method, "--format", "json")
        for fam, rank, op, hess, method in out
    ]


CASES = _cases()

DIGESTS = {
    "pave --family A --rank 3 --regular-nilpotent --hess peterson --method formula --format json":
        "556237cb6e29caad2c320ae52bd8b8ef13fcd67d78613f7fcf15b4da7f9a9ca3",
    "pave --family A --rank 3 --regular-nilpotent --hess peterson --method oracle --format json":
        "556237cb6e29caad2c320ae52bd8b8ef13fcd67d78613f7fcf15b4da7f9a9ca3",
    "pave --family A --rank 3 --regular-nilpotent --hess peterson --method tableau --format json":
        "556237cb6e29caad2c320ae52bd8b8ef13fcd67d78613f7fcf15b4da7f9a9ca3",
    "pave --family A --rank 3 --regular-nilpotent --hess h=2,3,4,4 --method formula --format json":
        "556237cb6e29caad2c320ae52bd8b8ef13fcd67d78613f7fcf15b4da7f9a9ca3",
    "pave --family A --rank 3 --regular-nilpotent --hess h=2,3,4,4 --method oracle --format json":
        "556237cb6e29caad2c320ae52bd8b8ef13fcd67d78613f7fcf15b4da7f9a9ca3",
    "pave --family A --rank 3 --regular-nilpotent --hess h=2,3,4,4 --method tableau --format json":
        "556237cb6e29caad2c320ae52bd8b8ef13fcd67d78613f7fcf15b4da7f9a9ca3",
    "pave --family A --rank 3 --regular-nilpotent --hess h=3,3,4,4 --method formula --format json":
        "a434c4312146e03f49719eb5f4bea898d4c5660e9f38a6c9a3b295105a5f5090",
    "pave --family A --rank 3 --regular-nilpotent --hess h=3,3,4,4 --method oracle --format json":
        "a434c4312146e03f49719eb5f4bea898d4c5660e9f38a6c9a3b295105a5f5090",
    "pave --family A --rank 3 --regular-nilpotent --hess h=3,3,4,4 --method tableau --format json":
        "a434c4312146e03f49719eb5f4bea898d4c5660e9f38a6c9a3b295105a5f5090",
    "pave --family A --rank 3 --regular-nilpotent --hess full --method formula --format json":
        "023035d5282aa2973319486cf06ac46bb523bebd12495651170a860404cd664c",
    "pave --family A --rank 3 --regular-nilpotent --hess full --method oracle --format json":
        "023035d5282aa2973319486cf06ac46bb523bebd12495651170a860404cd664c",
    "pave --family A --rank 3 --regular-nilpotent --hess full --method tableau --format json":
        "023035d5282aa2973319486cf06ac46bb523bebd12495651170a860404cd664c",
    "pave --family A --rank 3 --semisimple regular --hess peterson --method formula --format json":
        "6fae7144eb606939ac98f08ce684006416b9a91fbd2ba7bdfa0a0e1db49fc92a",
    "pave --family A --rank 3 --semisimple regular --hess peterson --method oracle --format json":
        "6fae7144eb606939ac98f08ce684006416b9a91fbd2ba7bdfa0a0e1db49fc92a",
    "pave --family A --rank 3 --semisimple regular --hess peterson --method tableau --format json":
        "6fae7144eb606939ac98f08ce684006416b9a91fbd2ba7bdfa0a0e1db49fc92a",
    "pave --family A --rank 3 --semisimple regular --hess h=2,3,4,4 --method formula --format json":
        "6fae7144eb606939ac98f08ce684006416b9a91fbd2ba7bdfa0a0e1db49fc92a",
    "pave --family A --rank 3 --semisimple regular --hess h=2,3,4,4 --method oracle --format json":
        "6fae7144eb606939ac98f08ce684006416b9a91fbd2ba7bdfa0a0e1db49fc92a",
    "pave --family A --rank 3 --semisimple regular --hess h=2,3,4,4 --method tableau --format json":
        "6fae7144eb606939ac98f08ce684006416b9a91fbd2ba7bdfa0a0e1db49fc92a",
    "pave --family A --rank 3 --semisimple regular --hess h=3,3,4,4 --method formula --format json":
        "371b4b7fadef4396a7ac93ef6f36c1ae3dc27dcf1110e16bb676fa514a0684f9",
    "pave --family A --rank 3 --semisimple regular --hess h=3,3,4,4 --method oracle --format json":
        "371b4b7fadef4396a7ac93ef6f36c1ae3dc27dcf1110e16bb676fa514a0684f9",
    "pave --family A --rank 3 --semisimple regular --hess h=3,3,4,4 --method tableau --format json":
        "371b4b7fadef4396a7ac93ef6f36c1ae3dc27dcf1110e16bb676fa514a0684f9",
    "pave --family A --rank 3 --semisimple regular --hess full --method formula --format json":
        "2d2ce1619b494ed8e6c866f01ddb677ab8f1dad849c89e7f9bbb6e86735ce7af",
    "pave --family A --rank 3 --semisimple regular --hess full --method oracle --format json":
        "2d2ce1619b494ed8e6c866f01ddb677ab8f1dad849c89e7f9bbb6e86735ce7af",
    "pave --family A --rank 3 --semisimple regular --hess full --method tableau --format json":
        "2d2ce1619b494ed8e6c866f01ddb677ab8f1dad849c89e7f9bbb6e86735ce7af",
    "pave --family A --rank 3 --semisimple 1 --hess peterson --method formula --format json":
        "43eae29177ef4f3cbdd15608dd995156c0dcb989062652fffb5909184b6ba1ec",
    "pave --family A --rank 3 --semisimple 1 --hess peterson --method oracle --format json":
        "43eae29177ef4f3cbdd15608dd995156c0dcb989062652fffb5909184b6ba1ec",
    "pave --family A --rank 3 --semisimple 1 --hess h=2,3,4,4 --method formula --format json":
        "43eae29177ef4f3cbdd15608dd995156c0dcb989062652fffb5909184b6ba1ec",
    "pave --family A --rank 3 --semisimple 1 --hess h=2,3,4,4 --method oracle --format json":
        "43eae29177ef4f3cbdd15608dd995156c0dcb989062652fffb5909184b6ba1ec",
    "pave --family A --rank 3 --semisimple 1 --hess h=3,3,4,4 --method formula --format json":
        "65412ff73789aa014c8ef0db5da9a91ae5b814f3e0bf3a6edb70b32bf733c49f",
    "pave --family A --rank 3 --semisimple 1 --hess h=3,3,4,4 --method oracle --format json":
        "65412ff73789aa014c8ef0db5da9a91ae5b814f3e0bf3a6edb70b32bf733c49f",
    "pave --family A --rank 3 --semisimple 1 --hess full --method formula --format json":
        "f1bfb5055e7625040ee1755896bae0105f90af5adb61bd577c13119169a88101",
    "pave --family A --rank 3 --semisimple 1 --hess full --method oracle --format json":
        "f1bfb5055e7625040ee1755896bae0105f90af5adb61bd577c13119169a88101",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess peterson --method formula --format json":
        "c578db2e58cb03f8c0b9a2889b92b66d1cec3d0548289196a8e8e213f93e4c4b",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess peterson --method oracle --format json":
        "c578db2e58cb03f8c0b9a2889b92b66d1cec3d0548289196a8e8e213f93e4c4b",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess peterson --method tableau --format json":
        "c578db2e58cb03f8c0b9a2889b92b66d1cec3d0548289196a8e8e213f93e4c4b",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess h=2,3,4,4 --method formula --format json":
        "c578db2e58cb03f8c0b9a2889b92b66d1cec3d0548289196a8e8e213f93e4c4b",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess h=2,3,4,4 --method oracle --format json":
        "c578db2e58cb03f8c0b9a2889b92b66d1cec3d0548289196a8e8e213f93e4c4b",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess h=2,3,4,4 --method tableau --format json":
        "c578db2e58cb03f8c0b9a2889b92b66d1cec3d0548289196a8e8e213f93e4c4b",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess h=3,3,4,4 --method formula --format json":
        "01dee30a76aae0f92e0b6386f20dc9c09a287e6a725d2b2639fce36e478e23d5",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess h=3,3,4,4 --method oracle --format json":
        "01dee30a76aae0f92e0b6386f20dc9c09a287e6a725d2b2639fce36e478e23d5",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess h=3,3,4,4 --method tableau --format json":
        "01dee30a76aae0f92e0b6386f20dc9c09a287e6a725d2b2639fce36e478e23d5",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess full --method formula --format json":
        "54220c7e6002f9036918a9ceef08283c655e8fb97fa80b0db1db3e288e7b2a8a",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess full --method oracle --format json":
        "54220c7e6002f9036918a9ceef08283c655e8fb97fa80b0db1db3e288e7b2a8a",
    "pave --family A --rank 3 --nilpotent 2,1,1 --hess full --method tableau --format json":
        "54220c7e6002f9036918a9ceef08283c655e8fb97fa80b0db1db3e288e7b2a8a",
    "pave --family A --rank 3 --nilpotent 2,2 --hess peterson --method formula --format json":
        "9a2b494dd77b2f2f1cbe7c733f593a0e3d022d131b0078a7dee232c86e5c7f2b",
    "pave --family A --rank 3 --nilpotent 2,2 --hess peterson --method oracle --format json":
        "9a2b494dd77b2f2f1cbe7c733f593a0e3d022d131b0078a7dee232c86e5c7f2b",
    "pave --family A --rank 3 --nilpotent 2,2 --hess peterson --method tableau --format json":
        "9a2b494dd77b2f2f1cbe7c733f593a0e3d022d131b0078a7dee232c86e5c7f2b",
    "pave --family A --rank 3 --nilpotent 2,2 --hess h=2,3,4,4 --method formula --format json":
        "9a2b494dd77b2f2f1cbe7c733f593a0e3d022d131b0078a7dee232c86e5c7f2b",
    "pave --family A --rank 3 --nilpotent 2,2 --hess h=2,3,4,4 --method oracle --format json":
        "9a2b494dd77b2f2f1cbe7c733f593a0e3d022d131b0078a7dee232c86e5c7f2b",
    "pave --family A --rank 3 --nilpotent 2,2 --hess h=2,3,4,4 --method tableau --format json":
        "9a2b494dd77b2f2f1cbe7c733f593a0e3d022d131b0078a7dee232c86e5c7f2b",
    "pave --family A --rank 3 --nilpotent 2,2 --hess h=3,3,4,4 --method formula --format json":
        "c90bbc03a2055dcba63e8a74e9c230efd5714143140814e158ee54a3e9a4a849",
    "pave --family A --rank 3 --nilpotent 2,2 --hess h=3,3,4,4 --method oracle --format json":
        "c90bbc03a2055dcba63e8a74e9c230efd5714143140814e158ee54a3e9a4a849",
    "pave --family A --rank 3 --nilpotent 2,2 --hess h=3,3,4,4 --method tableau --format json":
        "c90bbc03a2055dcba63e8a74e9c230efd5714143140814e158ee54a3e9a4a849",
    "pave --family A --rank 3 --nilpotent 2,2 --hess full --method formula --format json":
        "4fc7dcfb48fcbec62b5669ec39f21ffd4f0298cf97ab81ec5cdf4f794416b59a",
    "pave --family A --rank 3 --nilpotent 2,2 --hess full --method oracle --format json":
        "4fc7dcfb48fcbec62b5669ec39f21ffd4f0298cf97ab81ec5cdf4f794416b59a",
    "pave --family A --rank 3 --nilpotent 2,2 --hess full --method tableau --format json":
        "4fc7dcfb48fcbec62b5669ec39f21ffd4f0298cf97ab81ec5cdf4f794416b59a",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess peterson --method formula --format json":
        "2521c9545a402ec5f615a44feefd55cc2a197940fc1db6b99aa3964079937e29",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess peterson --method oracle --format json":
        "2521c9545a402ec5f615a44feefd55cc2a197940fc1db6b99aa3964079937e29",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess peterson --method tableau --format json":
        "2521c9545a402ec5f615a44feefd55cc2a197940fc1db6b99aa3964079937e29",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess h=2,3,4,4 --method formula --format json":
        "2521c9545a402ec5f615a44feefd55cc2a197940fc1db6b99aa3964079937e29",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess h=2,3,4,4 --method oracle --format json":
        "2521c9545a402ec5f615a44feefd55cc2a197940fc1db6b99aa3964079937e29",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess h=2,3,4,4 --method tableau --format json":
        "2521c9545a402ec5f615a44feefd55cc2a197940fc1db6b99aa3964079937e29",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess h=3,3,4,4 --method formula --format json":
        "de211a00d8112c59494bd2abf3f8ace59283d320cd857d4697897e8d59009c05",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess h=3,3,4,4 --method oracle --format json":
        "de211a00d8112c59494bd2abf3f8ace59283d320cd857d4697897e8d59009c05",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess h=3,3,4,4 --method tableau --format json":
        "de211a00d8112c59494bd2abf3f8ace59283d320cd857d4697897e8d59009c05",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess full --method formula --format json":
        "714dba086080f85f712071e1aa866b50708888a230b2f51eb566fa75740f2cf3",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess full --method oracle --format json":
        "714dba086080f85f712071e1aa866b50708888a230b2f51eb566fa75740f2cf3",
    "pave --family A --rank 3 --general x:2|y:1,1 --hess full --method tableau --format json":
        "714dba086080f85f712071e1aa866b50708888a230b2f51eb566fa75740f2cf3",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess peterson --method formula --format json":
        "daa6fd3af29effc444e0942acf4c11931a29e2378f3657ad7db530e966967e4b",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess peterson --method oracle --format json":
        "daa6fd3af29effc444e0942acf4c11931a29e2378f3657ad7db530e966967e4b",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess peterson --method tableau --format json":
        "daa6fd3af29effc444e0942acf4c11931a29e2378f3657ad7db530e966967e4b",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess h=2,3,4,4 --method formula --format json":
        "daa6fd3af29effc444e0942acf4c11931a29e2378f3657ad7db530e966967e4b",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess h=2,3,4,4 --method oracle --format json":
        "daa6fd3af29effc444e0942acf4c11931a29e2378f3657ad7db530e966967e4b",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess h=2,3,4,4 --method tableau --format json":
        "daa6fd3af29effc444e0942acf4c11931a29e2378f3657ad7db530e966967e4b",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess h=3,3,4,4 --method formula --format json":
        "c1d208d5b49107106b15dfabd6365b95a3a61be0c112cc4217584b4128e99336",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess h=3,3,4,4 --method oracle --format json":
        "c1d208d5b49107106b15dfabd6365b95a3a61be0c112cc4217584b4128e99336",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess h=3,3,4,4 --method tableau --format json":
        "c1d208d5b49107106b15dfabd6365b95a3a61be0c112cc4217584b4128e99336",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess full --method formula --format json":
        "df91524ede9cbc6dc937e947bf282c757b490912b776317adcf0c06036e99649",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess full --method oracle --format json":
        "df91524ede9cbc6dc937e947bf282c757b490912b776317adcf0c06036e99649",
    "pave --family A --rank 3 --general x:2,1|y:1 --hess full --method tableau --format json":
        "df91524ede9cbc6dc937e947bf282c757b490912b776317adcf0c06036e99649",
    "pave --family B --rank 3 --regular-nilpotent --hess peterson --method formula --format json":
        "1535f15957b81a929d05a4ac8bfb2f2b87eef97041128e3ec7556bf9643c22ce",
    "pave --family B --rank 3 --regular-nilpotent --hess peterson --method oracle --format json":
        "1535f15957b81a929d05a4ac8bfb2f2b87eef97041128e3ec7556bf9643c22ce",
    "pave --family B --rank 3 --semisimple regular --hess peterson --method formula --format json":
        "e2829096bc9c0bb4677753c14b9f81c706075696ae6737962c6077a32a9376c5",
    "pave --family B --rank 3 --semisimple regular --hess peterson --method oracle --format json":
        "e2829096bc9c0bb4677753c14b9f81c706075696ae6737962c6077a32a9376c5",
    "pave --family B --rank 3 --semisimple 1 --hess peterson --method formula --format json":
        "e42b5dcf50425bbb7525c23a2d02019f8bb1a461052f104ff7dc8f62977da3ff",
    "pave --family B --rank 3 --semisimple 1 --hess peterson --method oracle --format json":
        "e42b5dcf50425bbb7525c23a2d02019f8bb1a461052f104ff7dc8f62977da3ff",
    "pave --family C --rank 3 --regular-nilpotent --hess peterson --method formula --format json":
        "b0177d9cf97ec58e633ea191acabba713d3db4456c08cb3632e5b659f705d556",
    "pave --family C --rank 3 --regular-nilpotent --hess peterson --method oracle --format json":
        "b0177d9cf97ec58e633ea191acabba713d3db4456c08cb3632e5b659f705d556",
    "pave --family C --rank 3 --semisimple regular --hess peterson --method formula --format json":
        "c47f0740f8ec338b7efa8338f8ff9f2813306ec55af8967110680a2035f4c13d",
    "pave --family C --rank 3 --semisimple regular --hess peterson --method oracle --format json":
        "c47f0740f8ec338b7efa8338f8ff9f2813306ec55af8967110680a2035f4c13d",
    "pave --family C --rank 3 --semisimple 1 --hess peterson --method formula --format json":
        "015c82a1808bc7312ccb46bef070cf221ce076be52216061f535d53bd0345ced",
    "pave --family C --rank 3 --semisimple 1 --hess peterson --method oracle --format json":
        "015c82a1808bc7312ccb46bef070cf221ce076be52216061f535d53bd0345ced",
    "pave --family D --rank 4 --regular-nilpotent --hess peterson --method formula --format json":
        "f7f7383aaa683eea7b19ed8f3a045db550c4a9485d2dcb8ea7fd986c93d598ed",
    "pave --family D --rank 4 --regular-nilpotent --hess peterson --method oracle --format json":
        "f7f7383aaa683eea7b19ed8f3a045db550c4a9485d2dcb8ea7fd986c93d598ed",
    "pave --family D --rank 4 --semisimple regular --hess peterson --method formula --format json":
        "ba9ac347eaaf009af880a49f9e394c4ce3ece999e1ffa7bed08710753b713b58",
    "pave --family D --rank 4 --semisimple regular --hess peterson --method oracle --format json":
        "ba9ac347eaaf009af880a49f9e394c4ce3ece999e1ffa7bed08710753b713b58",
    "pave --family D --rank 4 --semisimple 1 --hess peterson --method formula --format json":
        "c53834694cdfa8b66110ec50d299b6f1932c4e5716dd3ca1014f72fd0f664348",
    "pave --family D --rank 4 --semisimple 1 --hess peterson --method oracle --format json":
        "c53834694cdfa8b66110ec50d299b6f1932c4e5716dd3ca1014f72fd0f664348",
    "pave --family B --rank 3 --regular-nilpotent --hess borel --method formula --format json":
        "1f59a41d8daf64c540ef0aebfad5fb87bfe5498ca7d213cb0ec77ae49356d710",
    "pave --family B --rank 3 --regular-nilpotent --hess borel --method oracle --format json":
        "1f59a41d8daf64c540ef0aebfad5fb87bfe5498ca7d213cb0ec77ae49356d710",
    "pave --family B --rank 3 --semisimple regular --hess borel --method formula --format json":
        "35d3d205ed37a62a1aeb51cfd6eb15ba97f7ac79b68aecd21074bf95a7bcd8a8",
    "pave --family B --rank 3 --semisimple regular --hess borel --method oracle --format json":
        "35d3d205ed37a62a1aeb51cfd6eb15ba97f7ac79b68aecd21074bf95a7bcd8a8",
    "pave --family B --rank 3 --semisimple 1 --hess borel --method formula --format json":
        "0bbfe47cea2618467ad663fffde2da8696508a0f43b28f8aa062e72d636df3a2",
    "pave --family B --rank 3 --semisimple 1 --hess borel --method oracle --format json":
        "0bbfe47cea2618467ad663fffde2da8696508a0f43b28f8aa062e72d636df3a2",
    "pave --family A --rank 4 --nilpotent 3,2 --hess h=2,3,4,5,5 --method formula --format json":
        "30ad873da08f756c96008bbfb969625ee599f6f31c7e7ad10b835cccdfae88c7",
    "pave --family A --rank 4 --general x:3|y:2 --hess h=2,4,4,5,5 --method formula --format json":
        "65cff591f63b9931c40a59a8ac959eae35bc9fd79beb53a2fe1947b51b86b70c",
    "pave --family C --rank 4 --regular-nilpotent --hess peterson --method formula --format json":
        "77d2a1dd502af8d9315d245118448d7910a3e7f97581459f3a7295b8c655dbda",
    "pave --family A --rank 5 --nilpotent 2,2,1,1 --hess h=3,3,4,5,6,6 --method formula --format json":
        "7f8ba64310fb6267518345088193866729d462e8d7c930c58d67e47a9a01b892",
}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv[1:-2]))
def test_pave_json_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[" ".join(argv)]


# Past the golden ranks: A7 (40,320 cells) on the Peterson and full spaces,
# recorded before the formula read cells through pi's own window.
A7_DIGESTS = {
    ("--semisimple", "regular", "peterson"):
        "f685078351e943ef8ade2762ce88c8722340b6c05eb96460b74bfa224c585f5d",
    ("--semisimple", "regular", "full"):
        "ddec6a1c8abc7a54c3f175290878bb5bbab23a743c51415351365df0c3ffc716",
    ("--regular-nilpotent", "peterson"):
        "f362b553c83b34183cc2712364ebf86bacf931806fe594d685be27e6f123e5d5",
    ("--regular-nilpotent", "full"):
        "2360fff10482cf91581d403c84b24ba792b5e3031e6120789a225047cabe0232",
}


@pytest.mark.slow
@pytest.mark.parametrize("case", A7_DIGESTS, ids=" ".join)
def test_a7_pave_json_digest(case, capsys):
    *op, hess = case
    argv = ["pave", "--family", "A", "--rank", "7", *op, "--hess", hess,
            "--method", "formula", "--format", "json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == A7_DIGESTS[case]


def _conjugation(*args, **kwargs):
    raise AssertionError("the formula path conjugated a matrix")


def test_formula_digests_without_conjugation(capsys, monkeypatch):
    orbit_oracle._oracle_data.cache_clear()
    monkeypatch.setattr(orbit_oracle, "_conjugate_rows", _conjugation)
    monkeypatch.setattr(orbit_oracle, "_conjugate", _conjugation)
    monkeypatch.setattr(orbit_oracle, "_kernel_table", _conjugation)
    monkeypatch.setattr(orbit_oracle, "operator_matrix", _conjugation)
    monkeypatch.setattr(orbit_oracle, "_mat_mul", _conjugation)
    monkeypatch.setattr(Poly, "__mul__", _conjugation)
    formula = [argv for argv in CASES if "formula" in argv]
    assert len(formula) == 44
    for argv in formula:
        assert cli.main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[" ".join(argv)]


# `verify --all-hess` at seeds 0 and 1: exit code and the SHA-256 of stdout
# and of stderr, recorded before verify shared oracle verdicts between
# spaces.  The D4 run stops at its late-pin FAIL line with exit 3.
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_VERIFY_RUNS = {
    ("B", "3", ("--regular-nilpotent",)): (
        0, "768826fda153031daaa8942b67f872d1e79e2edbc6d685ec51bdf14304568fca"),
    ("C", "3", ("--regular-nilpotent",)): (
        0, "f4b8fb6fb8f1f8c1c120e69b321fbf00ba21d18a6934dc325b39e955e7f81303"),
    ("B", "3", ("--semisimple", "1,2")): (
        0, "768826fda153031daaa8942b67f872d1e79e2edbc6d685ec51bdf14304568fca"),
    ("A", "3", ("--nilpotent", "2,1,1")): (
        0, "431ba4d56a7ada5baf7cf51701b995bb325783b70e398c5ec97e681acedf2946"),
    ("A", "3", ("--general", "x:2|y:1,1")): (
        0, "431ba4d56a7ada5baf7cf51701b995bb325783b70e398c5ec97e681acedf2946"),
    ("D", "4", ("--regular-nilpotent",)): (
        3, "ab43dc656669d3b7a4371af4f16ba1f27bf11ee9c34bf7fbe31b030094727fd8"),
}
VERIFY_DIGESTS = {
    ("verify", "--family", fam, "--rank", rank, *op, "--all-hess", "--seed", seed):
        (code, out, _EMPTY)
    for (fam, rank, op), (code, out) in _VERIFY_RUNS.items()
    for seed in ("0", "1")
}


@pytest.mark.parametrize("argv", VERIFY_DIGESTS, ids=lambda argv: " ".join(argv[1:]))
def test_verify_all_hess_digest(argv, capsys):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert (code, hashlib.sha256(captured.out.encode()).hexdigest(),
            hashlib.sha256(captured.err.encode()).hexdigest()) == VERIFY_DIGESTS[argv]
