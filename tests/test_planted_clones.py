"""Every planted clone is decided bisimilar to the product it copies.

`random_system` plants constants whose rule set is an earlier constant's rule
set with one tail appended; `conftest.planted_clones` finds them again from
the rules alone.  A missed equation only makes the engine answer "not
bisimilar", which the oracle cannot refute and which pruned and exhaustive
mode could share, so this is the check that the engine finds every equation
it must.
"""

import pytest

from conftest import engine_random_params, missed_clones, planted_clones
from tnbpa.oracle import random_system


def test_no_planted_clone_is_missed_on_the_wide_grid(wide_grid):
    assert sum(len(planted_clones(run.sys)) for run in wide_grid) > 1000
    assert [(run.params, missed) for run in wide_grid if (missed := missed_clones(run))] == []


@pytest.mark.parametrize("n", [256, 512, 1024])
@pytest.mark.parametrize("cap", [1, 4, 8])
def test_no_planted_clone_is_missed_on_the_random_family(n, cap):
    params = engine_random_params(n, cap, 42)
    assert planted_clones(random_system(params))
    assert missed_clones(params) == []
