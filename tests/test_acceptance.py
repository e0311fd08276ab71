"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.  Every tolerance is stated inline; exact means ==.
"""

from __future__ import annotations

import time

from bspkit.checks import (
    sgl_expressiveness,
    suite_determinism,
    suite_exact_counts,
    suite_model_recovery,
    suite_nested,
    suite_oracles,
    suite_recosting,
    suite_supersteps,
    suite_translate,
    suite_transpose,
)


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_exact_count_reproduction():
    # broadcast, total exchange, ring shift; p in 1..8, n in {1, 10, 100};
    # h and word counts match closed forms exactly (tolerance 0); runtime < 1 s
    t0 = time.perf_counter()
    result = suite_exact_counts()
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 1.0
    _criterion(1, "exact-count reproduction", ok, f"{result.detail}; {elapsed:.2f}s")


def test_criterion_2_transpose_law():
    # exhaustive p <= 5, 1000 randomized optional payloads, exact equality
    result = suite_transpose(max_p=5, cases=1000)
    _criterion(2, "put transpose law", result.passed, result.detail)


def test_criterion_3_oracle_equivalence():
    # >= 100 randomized instances per algorithm, p in {1,2,4,8}; integer
    # algorithms exact, n-body bit-exact; runtime < 30 s total
    t0 = time.perf_counter()
    result = suite_oracles(instances=100, p_list=(1, 2, 4, 8))
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 30.0
    _criterion(3, "oracle equivalence", ok, f"{result.detail}; {elapsed:.1f}s")


def test_criterion_4_constant_supersteps():
    # sample sort: same sync_count at n=10^3 and 10^4 (p=4); hash lookup
    # contributes exactly 2 supersteps for any batch size
    result = suite_supersteps()
    _criterion(4, "constant supersteps", result.passed, result.detail)


def test_criterion_5_sgl_expressiveness():
    # >= 8 of the fixed 10-operation basis pass put-free; report the fraction
    fraction, passing, failing = sgl_expressiveness()
    detail = f"{len(passing)}/10 operations put-free ({fraction:.0%}); not expressible: {', '.join(failing)}"
    _criterion(5, "SGL expressiveness", fraction >= 0.8, detail)


def test_criterion_6_nested_equals_flat():
    # values on Node(2 leaves x p=2) equal flat p=4 exactly; the hand example
    # decomposes to 35 time-units
    result = suite_nested()
    _criterion(6, "nested equals flat", result.passed, result.detail)


def test_criterion_7_model_recovery():
    # noiseless synthetic grids: coefficients within 1e-6 relative, RMS <= 1e-9;
    # simulator broadcast grid recovers (l, g) within 1e-9
    result = suite_model_recovery(draws=20)
    _criterion(7, "model recovery", result.passed, result.detail)


def test_criterion_8_determinism():
    # two simulate runs bit-identical (modulo timestamp); parallel backend
    # reproduces simulate's values and counts
    result = suite_determinism()
    _criterion(8, "determinism", result.passed, result.detail)


def test_criterion_9_recosting():
    # estimate_runtime with modified l changes total cost by exactly sync*dl
    result = suite_recosting()
    _criterion(9, "re-costing", result.passed, result.detail)


def test_supplement_translation_laws():
    # not numbered in the criteria but part of the sgl contract: translated
    # programs preserve results and superstep counts
    result = suite_translate(cases=30)
    _criterion(0, "SGL-to-BSML translation", result.passed, result.detail)
