"""Every golden CLI output (see `record_golden.py`) against `golden.json`, byte for byte."""

import json

import pytest

from record_golden import GOLDEN, build, differences, run_all


def test_outputs_match_the_recorded_digests(tmp_path):
    with open(GOLDEN) as handle:
        recorded = json.load(handle)
    here = build()
    if recorded["build"] != here:
        pytest.skip(f"golden digests are from the build {recorded['build']}, "
                    f"this is {here}; rerun tests/record_golden.py on a parent commit to compare")
    changed = differences(recorded["runs"], run_all(tmp_path))
    assert not changed, "outputs differ from tests/golden.json:\n" + "\n".join(changed)
