"""Test-side switches.

`--stream-salt SALT` re-keys every Philox stream of the program: each stage
tag becomes the blake2b digest of the stage name keyed with SALT.  A test that
holds only on the streams of its seed fails under some salt.  The tests marked
`pins_streams` pin the unsalted streams on purpose, so a salted run deselects
them:

    pytest --stream-salt 1 -m "not pins_streams"
"""

import hashlib

import pytest

_patches = pytest.MonkeyPatch()


def pytest_addoption(parser):
    parser.addoption("--stream-salt", metavar="SALT",
                     help="re-key every stage stream of the program with a salted stage tag (1-64 bytes)")


def pytest_configure(config):
    config.addinivalue_line("markers", "pins_streams: pins the unsalted streams on purpose")
    salt = config.getoption("stream_salt")
    if salt:
        from wmqkd import harness

        def salted_tag(stage):
            return int.from_bytes(hashlib.blake2b(stage.encode(), digest_size=8, key=salt.encode()).digest(),
                                  "little")

        _patches.setattr(harness, "_stage_tag", salted_tag)


def pytest_unconfigure(config):
    _patches.undo()
