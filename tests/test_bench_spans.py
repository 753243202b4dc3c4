"""The benchmark's tracer rebinds library names in place; they must exist."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_is_bound_at_its_owner(monkeypatch):
    # bench/spans.py reads owner.__dict__[attr]; a name a refactor drops
    # would crash ``bench/run.py --trace 1``.
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans.FUNCTIONS + spans.PER_OPERATOR
               if attr not in owner.__dict__]
    assert not missing
