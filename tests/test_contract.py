"""The contract corpus: every case of ``contract_cases`` reproduces its
pinned outcome in ``contract_golden.json``, and every float output is
within its tolerance of the exact reference."""

import json

import pytest

from contract_cases import GOLDEN, cases, outcome

CASES = cases()
PINNED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _group(case):
    """``lib/stationary`` or ``cli/weights``: one test per call family."""
    return "/".join(case.name.split("/")[:2])


GROUPS = {}
for _case in CASES:
    GROUPS.setdefault(_group(_case), []).append(_case)


def test_the_golden_file_pins_exactly_the_cases():
    names = [c.name for c in CASES]
    assert sorted(PINNED) == sorted(names)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_contract(group):
    failures = []
    for case in GROUPS[group]:
        out, got = outcome(case)
        if got != PINNED.get(case.name):
            failures.append(f"{case.name}: {got!r}\n"
                            f"  pinned {PINNED.get(case.name)!r}")
        elif case.check and out is not None:
            try:
                case.check(out)
            except AssertionError as exc:
                failures.append(f"{case.name}: {exc}")
    if failures:
        pytest.fail("\n".join(failures), pytrace=False)
