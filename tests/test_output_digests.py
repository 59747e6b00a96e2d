"""Frozen SHA-256 digests of the command line's outputs.

A refactor that should not change behaviour must leave stdout, the JSON
report and the DOT export byte for byte as they were.  The digests were
recorded when this test was added; a change that alters an output on
purpose must update them and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from tightgroupoid import cli

# fixture -> (stdout, JSON, DOT) digests of `analyze --fixture NAME`
FIXTURE_DIGESTS = {
    "I2": ("a34478ed67a9d978f51909aa18da363b4d2a275371acd1d31ec193f37e148e4c",
           "6c6d47f5e858fc95e6f87ed729b465f50ce9d26a1c1586d77d713e3865d3268e",
           "cbbcf80983aa16575b10470e5e54d8b31f4cfb4c9939cb658d0319acc699587e"),
    "B2": ("a9f5539b50ce4ea55b46472e07938f3f009142f387d8de9bb402ac6d81fbc17d",
           "4e9999dae3b96befc6b6f7355a8f81e3e96f6ef2b762346c64eef5859ebfb11b",
           "0d853ed623f0b93b78c9e8d0da2cd7248044c160b01686128bae2809d7021b7d"),
    "Z2z": ("12ffc3183aa46046ace93dcfa303890c3fe4750452623be79135ed037a239f25",
            "183c2a0a69fc9087115ee1887913c74f26b0fb14ff263dce1015e4c902af9064",
            "97c8e27c1fefd2d35d50735baeb421764895ba2e28c6a734b9f9e56687ec4abc"),
    "E4": ("f75fa1a611d33174d59c851d003a3fb4b6419715d3842b7265296acbee2b1fee",
           "946ecebb53f981ea3b541f4be7c402a06d4eb0948761ccc99e433315f7d31f7c",
           "9b969abcb39716aca24737922d58bd2c14c393509acb5f60a7171f88be4138b8"),
    "In(3)": ("bd4a9844c57e37d66cd919af5dc1ba35f42b5c32380d52ac480d8466cbf52b99",
              "71a9b37142500a2f51da0ba85ee1b3888542e96a6b582e3a3056f4f4993278de",
              "ce774af9037fab3bc61eb18791de60b772291a382ea74f00d69e744d71132b9e"),
}

# (stdout, JSON) digests of `analyze --corpus 60 --seed 3`
CORPUS_DIGESTS = (
    "bee915836b9d71634250dace08cb68850c711e0a8be2d4f0f870478840fd97ed",
    "a7b5070a5b608714be86fbe2cd8c89c3ff63a1d08d9af00cd2f46c3744b3e8a9",
)

# (fixture, --check value) -> stdout digest of `analyze --fixture NAME
# --check VALUE`
CHECK_DIGESTS = {
    ("Z2z", "hausdorff"): "63a9e6efb86207877860f3c9ebbe0b3aafe721923f199a92d5b0897f58c78c90",
    ("Z2z", "esspr"): "04be13915d3958989c9d0ea7c88cb912faeb4bb66ed9845fe07d7063819417ef",
    ("Z2z", "minimal"): "b395114b691f61fbd7047f0c674d4f150a087797a928b6639e90e3b0ffcd7db0",
    ("Z2z", "loccontr"): "a0faf7d99d263c51c68fc2466cf82ab8633aa096b0ab1bee328707b3eabdb240",
    ("E4", "hausdorff"): "1ca91c1b2aa3d1298e68b362f4f655c15a62d084c3bb7197bdf12fe6223fba46",
    ("E4", "esspr"): "7415afc8c24a3a514ae3d326521429d12b766f94dd2771e11ef205fbaffb3923",
    ("E4", "minimal"): "85e6e956327de8de57706a06b1731c95f1c5067d1975936370e737859099eb33",
    ("E4", "loccontr"): "f1eff10c54a541b9790f5fbfc0d4aa18609eb475a630d896cab98ffbe41128c3",
}

# stdout digest of `analyze FILE` on the one-element table, whose
# EmptySpectrum document goes to stdout when no --json path is given
EMPTY_SPECTRUM_DIGEST = \
    "3d0ae9c17aaf0c6c5d01c0d8ba632b650a5f6b220730ca3fbd0c0d1711623083"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_outputs_are_frozen(name, tmp_path, capsys):
    jpath, dpath = tmp_path / "out.json", tmp_path / "out.dot"
    assert cli.run_cli(["analyze", "--fixture", name, "--json", str(jpath),
                        "--dot", str(dpath)]) == 0
    got = (sha256(capsys.readouterr().out.encode()),
           sha256(jpath.read_bytes()), sha256(dpath.read_bytes()))
    assert got == FIXTURE_DIGESTS[name]


def test_corpus_outputs_are_frozen(tmp_path, capsys):
    jpath = tmp_path / "corpus.json"
    assert cli.run_cli(["analyze", "--corpus", "60", "--seed", "3",
                        "--json", str(jpath)]) == 0
    got = (sha256(capsys.readouterr().out.encode()), sha256(jpath.read_bytes()))
    assert got == CORPUS_DIGESTS


@pytest.mark.parametrize("name,check", sorted(CHECK_DIGESTS))
def test_single_check_outputs_are_frozen(name, check, capsys):
    assert cli.run_cli(["analyze", "--fixture", name, "--check", check]) == 0
    assert sha256(capsys.readouterr().out.encode()) == \
        CHECK_DIGESTS[(name, check)]


def test_empty_spectrum_document_is_frozen(tmp_path, capsys):
    path = tmp_path / "tiny.isg"
    path.write_text("semigroup tiny\ntable 1 zero 0\n0\n")
    assert cli.run_cli(["analyze", str(path)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == EMPTY_SPECTRUM_DIGEST
