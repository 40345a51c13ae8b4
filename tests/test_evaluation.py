import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildref.evaluation import (
    EvaluationReport,
    GoldLabel,
    UnknownCommitError,
    gold_from_lines,
    gold_to_line,
    predictions_from_lines,
    render_report,
    report_from_json,
    report_to_json,
    score,
)
from buildref.taxonomy import ALL_TYPE_IDS, UnknownTypeError

H1, H2, H3, H4 = "1" * 40, "2" * 40, "3" * 40, "4" * 40


def test_direct_formula_case():
    # one type with tp=3, fp=1, fn=1 spread over commits
    gold = [GoldLabel(H1, ("DRY", "DRY", "DRY", "DRY")), GoldLabel(H2, ())]
    pred = [(H1, ["DRY", "DRY", "DRY"]), (H2, ["DRY"])]
    report = score(gold, pred)
    m = report.per_type["DRY"]
    assert (m.tp, m.fp, m.fn) == (3, 1, 1)
    assert m.precision == pytest.approx(0.75)
    assert m.recall == pytest.approx(0.75)
    assert m.f1 == pytest.approx(0.75)


def test_perfect_match_gives_all_ones():
    gold = [GoldLabel(H1, ("Extract Module",)), GoldLabel(H2, ("DRY", "Reformat Code"))]
    pred = [(H1, ["Extract Module"]), (H2, ["DRY", "Reformat Code"])]
    report = score(gold, pred)
    for m in report.per_type.values():
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    assert report.overall_macro.f1 == 1.0
    assert report.overall_micro.f1 == 1.0


# DERIVED confusion fixture, hand-computed before the scorer existed:
#   commit H1: gold {A:2}, pred {A:2}          -> A: tp+=2
#   commit H2: gold {A:2}, pred {A:1}          -> A: tp+=1, fn+=1
#   commit H3: gold {B:1}, pred {B:1, A:1}     -> B: tp+=1; A: fp+=1
#   commit H4: gold {B:1}, pred {B:3}          -> B: tp+=1, fp+=2
# totals: A(tp=3, fp=1, fn=1) -> PR=3/4, RE=3/4, F1=3/4
#         B(tp=2, fp=2, fn=0) -> PR=1/2, RE=1,  F1=2/3
# macro:  PR=(3/4+1/2)/2=0.625  RE=(3/4+1)/2=0.875  F1=(3/4+2/3)/2=17/24
# micro:  tp=5, fp=3, fn=1 -> PR=5/8, RE=5/6, F1=2*(5/8)(5/6)/((5/8)+(5/6))=5/7
A, B = "Extract Module", "DRY"
DERIVED_GOLD = [
    GoldLabel(H1, (A, A)),
    GoldLabel(H2, (A, A)),
    GoldLabel(H3, (B,)),
    GoldLabel(H4, (B,)),
]
DERIVED_PRED = [
    (H1, [A, A]),
    (H2, [A]),
    (H3, [B, A]),
    (H4, [B, B, B]),
]


def test_derived_confusion_fixture_exact_to_1e9():
    report = score(DERIVED_GOLD, DERIVED_PRED)
    a, b = report.per_type[A], report.per_type[B]
    assert (a.tp, a.fp, a.fn) == (3, 1, 1)
    assert (b.tp, b.fp, b.fn) == (2, 2, 0)
    assert abs(report.overall_macro.precision - 0.625) < 1e-9
    assert abs(report.overall_macro.recall - 0.875) < 1e-9
    assert abs(report.overall_macro.f1 - 17 / 24) < 1e-9
    assert abs(report.overall_micro.precision - 5 / 8) < 1e-9
    assert abs(report.overall_micro.recall - 5 / 6) < 1e-9
    assert abs(report.overall_micro.f1 - 5 / 7) < 1e-9


def test_macro_differs_from_micro_on_derived_fixture():
    report = score(DERIVED_GOLD, DERIVED_PRED)
    assert abs(report.overall_macro.f1 - report.overall_micro.f1) > 1e-3


def test_harmonic_mean_inequality_on_random_triples():
    rng = random.Random(20240901)
    for _ in range(1000):
        tp, fp, fn = rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20)
        gold = [GoldLabel(H1, ("DRY",) * (tp + fn))]
        pred = [(H1, ["DRY"] * (tp + fp))]
        m = score(gold, pred).per_type.get("DRY")
        if m is None:
            continue
        assert m.f1 <= (m.precision + m.recall) / 2 + 1e-12
        if abs(m.precision - m.recall) < 1e-12:
            assert m.f1 == pytest.approx((m.precision + m.recall) / 2)


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(4))))
def test_score_invariant_under_permutation(order):
    base = score(DERIVED_GOLD, DERIVED_PRED)
    shuffled = score(
        [DERIVED_GOLD[i] for i in order],
        [DERIVED_PRED[i] for i in reversed(order)],
    )
    assert report_to_json(base) == report_to_json(shuffled)


def test_unknown_commit_rejected():
    with pytest.raises(UnknownCommitError):
        score([GoldLabel(H1, ("DRY",))], [(H2, ["DRY"])])


def test_gold_labels_validate_types():
    with pytest.raises(UnknownTypeError):
        GoldLabel(H1, ("Extract Nonsense",))


def test_unknown_predictions_counted_under_reserved_row():
    gold = [GoldLabel(H1, ("DRY",))]
    pred = [(H1, ["DRY", "Quantum Cleanup"])]
    report = score(gold, pred)
    assert report.per_type["unknown"].fp == 1
    assert report.per_type["unknown"].support == 0
    # zero-support rows stay out of the macro average
    assert report.overall_macro.f1 == 1.0


def test_zero_denominator_convention():
    gold = [GoldLabel(H1, ("DRY",))]
    report = score(gold, [(H1, [])])
    m = report.per_type["DRY"]
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)


def test_recall_counts_every_miss_when_misses_outnumber_hits():
    gold = [GoldLabel(H1, ("DRY",) * 3), GoldLabel(H2, ("DRY", "DRY"))]
    m = score(gold, [(H1, ["DRY"]), (H2, ["DRY"])]).per_type["DRY"]
    assert (m.tp, m.fn) == (2, 3)
    assert m.recall == pytest.approx(2 / 5)
    m = score([GoldLabel(H1, ("DRY", "DRY"))], [(H1, ["DRY"])]).per_type["DRY"]
    assert (m.tp, m.fn, m.recall) == (1, 1, 0.5)


def test_support_is_the_gold_count_and_decides_the_macro_average():
    # DRY found once of three; Extract Module missed outright; the unknown row is all false positive
    gold = [GoldLabel(H1, ("DRY", "DRY", "DRY", "Extract Module"))]
    report = score(gold, [(H1, ["DRY", "Quantum Cleanup"])])
    assert {t: m.support for t, m in report.per_type.items()} == {"DRY": 3, "Extract Module": 1, "unknown": 0}
    assert all(m.support == m.tp + m.fn for m in report.per_type.values())
    # the macro average runs over DRY and Extract Module, the types with gold support
    assert report.overall_macro.recall == pytest.approx((1 / 3 + 0) / 2)
    assert report.overall_macro.precision == pytest.approx((1 + 0) / 2)


def test_set_mode_collapses_counts():
    gold = [GoldLabel(H1, ("DRY", "DRY"))]
    pred = [(H1, ["DRY", "DRY", "DRY"])]
    multiset = score(gold, pred)
    setwise = score(gold, pred, set_mode=True)
    assert multiset.per_type["DRY"].fp == 1
    assert setwise.per_type["DRY"].fp == 0
    assert setwise.per_type["DRY"].tp == 1


# --- rendering ---------------------------------------------------------------

def _data_rows(text: str) -> list[str]:
    return [
        line for line in text.split("\n")
        if line.startswith("|") and not line.startswith("|---") and "Refactoring Types" not in line
    ]


def test_one_type_report_renders_two_rows_plus_micro():
    report = score([GoldLabel(H1, ("DRY",))], [(H1, ["DRY"])])
    rows = _data_rows(render_report(report))
    assert len(rows) == 3  # DRY + All Refs. + micro line
    assert rows[0].startswith("| DRY |")
    assert rows[1].startswith("| All Refs. |")


def test_empty_report_renders_all_refs_zeros():
    report = score([], [])
    rows = _data_rows(render_report(report))
    assert rows[0] == "| All Refs. | 0.00 | 0.00 | 0.00 |"


def test_24_type_report_renders_25_primary_rows():
    gold = [GoldLabel(f"{i:040x}", (t,)) for i, t in enumerate(ALL_TYPE_IDS)]
    pred = [(g.commit_hash, list(g.types)) for g in gold]
    report = score(gold, pred)
    rows = _data_rows(render_report(report))
    assert len(rows) == 26  # 24 types + All Refs. + micro line
    assert rows[24].startswith("| All Refs. |")


def test_report_json_round_trip():
    report = score(DERIVED_GOLD, DERIVED_PRED, backend="static")
    clone = report_from_json(report_to_json(report))
    assert clone == report


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_report(score([], []), "yaml")


# --- line formats -----------------------------------------------------------

def test_gold_line_round_trip():
    label = GoldLabel(H1, ("Extract Module", "DRY"))
    parsed = gold_from_lines([gold_to_line(label)])
    assert parsed == [label]


def test_predictions_accept_both_line_shapes():
    grouped = json.dumps({"commit_hash": H1, "types": ["DRY", "Extract Module"]})
    detections = [
        json.dumps({"commit_hash": H2, "RefactoringType": "DRY", "Details": "x"}),
        json.dumps({"commit_hash": H2, "RefactoringType": "Reformat Code", "Details": "y"}),
    ]
    pred = predictions_from_lines([grouped] + detections)
    assert pred == [(H1, ["DRY", "Extract Module"]), (H2, ["DRY", "Reformat Code"])]
