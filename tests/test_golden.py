"""Every command's bytes against ``tests/golden/manifest.json``: run from
the start, and resumed from the checked-in checkpoint fixtures."""

import json
import shutil

import pytest

from tests.golden import make_manifest as golden

MANIFEST = json.loads(golden.MANIFEST.read_text(encoding="ascii"))


@pytest.fixture
def same_numpy():
    here, there = golden.numpy_runtime(), MANIFEST["numpy"]
    if here != there:
        pytest.skip(f"numpy here is {here}, the manifest's is {there}")


def test_the_manifest_holds_every_case():
    assert sorted(MANIFEST["cases"]) == sorted(golden.cases())


def test_a_fixture_is_kept_for_every_resumed_case():
    assert sorted(p.name for p in golden.FIXTURES.iterdir()) == sorted(golden.RESUMED)


@pytest.mark.parametrize("name", sorted(golden.cases()))
def test_case_bytes_equal_the_manifest(tmp_path, same_numpy, name):
    argv = golden.cases()[name]
    assert {"argv": argv, **golden.run_case(argv, tmp_path)} == MANIFEST["cases"][name]


@pytest.mark.parametrize("name", golden.RESUMED)
def test_fixture_resumes_to_the_manifest_bytes(tmp_path, same_numpy, name):
    shutil.copytree(golden.FIXTURES / name, tmp_path, dirs_exist_ok=True)
    argv = golden.cases()[name]
    resumed = golden.run_case([*argv, *golden.RESUME], tmp_path)
    # the files compared are all the directory holds: no checkpoint is left
    assert {"argv": argv, **resumed} == MANIFEST["cases"][name]
