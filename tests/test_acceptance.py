"""End-to-end acceptance checks, one test per criterion.

Every check is exact (integer or rational); the suites live in
hpascal.verify so the CLI `verify` command runs the same code.  Run with
`pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import pytest

from hpascal import verify

CRITERIA = [
    (1, "euclidean-oracle"),
    (2, "three-way"),
    (3, "alternating"),
    (4, "parity"),
    (5, "pattern"),
    (6, "locator"),
    (7, "embeddings"),
    (8, "elimination"),
    (9, "exactness"),
]


@pytest.mark.parametrize("number,suite", CRITERIA, ids=[name for _, name in CRITERIA])
def test_criterion(number, suite):
    (result,) = verify.run([suite])
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {status} criterion {number} ({suite}): {result.detail}")
    assert result.passed, f"criterion {number} ({suite}): {result.detail}"
