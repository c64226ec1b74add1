"""Replay ``tests/data/front_door_golden.json`` (see front_door_support)."""

import pytest

from tests.front_door_support import CASES, load_golden, run_case


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_command_prints_what_was_recorded(case_id):
    assert run_case(case_id) == load_golden()[case_id]
