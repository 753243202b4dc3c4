"""Each mutant of ``tests/mutants.py`` still applies to the source.

A mutant is a literal edit whose text must occur exactly once in its file;
a refactor that moves that text fails here, in Tier-1, instead of only in
the separate mutation check.
"""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_anchor_occurs_once(mutant):
    name, file, old, new = mutant
    source = (mutants.ROOT / "src" / "warpsplit" / file).read_text(encoding="utf-8")
    assert mutants.mutated(name, file, old, new) != source
