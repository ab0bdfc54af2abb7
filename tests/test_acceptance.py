"""Acceptance gate: every top-level criterion runs as its own test, with
one pass/fail line and a wall-clock bound; and the suite does not redo
work the package has already done."""

import sys
import time

import pytest

from growth import checks, partitions, tableaux

CRITERIA = [
    ("1-figure-growth", checks.check_figure_growth, 1.0),
    ("2-figure-wall", checks.check_figure_wall, 1.0),
    ("3-counts", checks.check_counts, 10.0),
    ("4-decgd-counts", checks.check_decgd_counts, 30.0),
    ("5-conic-exactness", checks.check_conic_g24, 1.0),
    ("6-six-point-cycle", checks.check_six_point, 60.0),
    ("7-flag6-example", checks.check_flag6, 1.0),
    ("8-cover-topology-r4", checks.check_cover_r4, 1.0),
    ("9-property-suites", checks.check_properties, 300.0),
]


@pytest.mark.parametrize("name,fn,bound",
                         CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(name, fn, bound):
    start = time.monotonic()
    ok, detail = fn()
    elapsed = time.monotonic() - start
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s): {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < bound, f"{name} took {elapsed:.2f}s, bound {bound}s"


def test_checks_do_not_redo_the_package_work(monkeypatch):
    """Over the whole suite, from cold caches: partitions are normalized
    at most half as often as the 7,139 times of the code that re-validated
    its own chains; no chain is re-validated under canonical_rep or
    shuffle_classes; and DualClass.of gives one object per class."""
    modules = [module for name, module in sorted(sys.modules.items())
               if name.startswith("growth.")]
    for module in modules:
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    normalized = []
    normalize = partitions.normalize
    validate_chain = tableaux.validate_chain
    trusted = {tableaux.canonical_rep.__wrapped__.__code__,
               tableaux.shuffle_classes.__code__}
    revalidated = []

    def spy_normalize(parts):
        normalized.append(1)
        return normalize(parts)

    def spy_validate(chain):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in trusted:
                revalidated.append((frame.f_code.co_name, chain))
            frame = frame.f_back
        return validate_chain(chain)

    for module in modules:
        for name, value in list(vars(module).items()):
            if value is normalize:
                monkeypatch.setattr(module, name, spy_normalize)
            elif value is validate_chain:
                monkeypatch.setattr(module, name, spy_validate)
    classes = {}
    of = tableaux.DualClass.of
    calls = []

    def spy_of(t):
        cls = of(t)
        calls.append(t)
        assert classes.setdefault(cls.representative, cls) is cls
        return cls

    monkeypatch.setattr(tableaux.DualClass, "of", staticmethod(spy_of))
    results = checks.run_checks()
    assert all(ok for _, ok, _, _ in results)
    assert revalidated == []
    assert 0 < len(normalized) <= 7139 // 2
    # classes are asked for again and again, and each time the same
    # object answers
    assert len(calls) > 2 * len(classes) > 0
