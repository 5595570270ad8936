"""Every ledger case (make_ledger.py) reproduces the digests of ledger.json
bit for bit: a value or a tail that moves by one ulp fails here."""

import json

import pytest

from make_ledger import LEDGER, cases, digest

CASES = cases()


def test_ledger_lists_every_case():
    assert sorted(json.loads(LEDGER.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_the_ledger(name):
    assert digest(CASES[name]) == json.loads(LEDGER.read_text())[name]
