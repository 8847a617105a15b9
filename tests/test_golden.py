"""Every command's bytes at 1e6 against ``tests/golden/manifest.json``."""

import json

import pytest

from tests.golden import make_manifest as golden

MANIFEST = json.loads(golden.MANIFEST.read_text(encoding="ascii"))


def test_the_manifest_holds_every_case():
    assert sorted(MANIFEST["cases"]) == sorted(golden.cases())


@pytest.mark.parametrize("name", sorted(golden.cases()))
def test_case_bytes_equal_the_manifest(tmp_path, name):
    here, there = golden.numpy_runtime(), MANIFEST["numpy"]
    if here != there:
        pytest.skip(f"numpy here is {here}, the manifest's is {there}")
    argv = golden.cases()[name]
    assert {"argv": argv, **golden.run_case(argv, tmp_path)} == MANIFEST["cases"][name]
