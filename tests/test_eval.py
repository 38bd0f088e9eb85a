from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griddet.assign import GroundTruth
from griddet.boxes import Box, iou
from griddet.evaluate import (FP_CATEGORIES, DetRecord,
                              InvalidSimilarityGroupsError, average_precision,
                              evaluate_detections, format_report, fp_breakdown,
                              match_detections, read_detection_dump,
                              write_detection_dump)


def naive_ap(detections, gts, iou_match=0.5):
    """Independent AP oracle in exact rational arithmetic.

    Re-implements greedy score-order matching with plain loops, then walks
    the PR curve prefix by prefix, taking for each recall increment the best
    precision at any equal-or-higher recall (the envelope, by definition).
    """
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0 or not detections:
        return Fraction(0)
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i][1], i))
    used = {img: set() for img in gts}
    points = []  # (recall, precision) per prefix
    tp = 0
    for rank, i in enumerate(order, start=1):
        img, _, box = detections[i]
        candidates = [(iou(box, g), j) for j, g in enumerate(gts.get(img, []))
                      if j not in used.get(img, set())]
        candidates = [(v, j) for v, j in candidates if v >= iou_match]
        if candidates:
            best = max(candidates, key=lambda t: (t[0], -t[1]))
            used[img].add(best[1])
            tp += 1
        points.append((Fraction(tp, n_gt), Fraction(tp, rank)))
    ap = Fraction(0)
    prev_recall = Fraction(0)
    for recall, _ in points:
        if recall > prev_recall:
            best_prec = max(p for r, p in points if r >= recall)
            ap += (recall - prev_recall) * best_prec
            prev_recall = recall
    return ap


def reference_ap(detections, gts, iou_match=0.5):
    """The PR-point walk that average_precision replaced, kept as its exact
    reference: one (recall, precision) point per detection in score order,
    the precision envelope from the right, and a sequential sum."""
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0 or not detections:
        return 0.0
    flags = match_detections(detections, gts, iou_match)
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i][1], i))
    recalls, precisions = [0.0], [0.0]
    tp = fp = 0
    for i in order:
        if flags[i]:
            tp += 1
        else:
            fp += 1
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
    recalls, precisions = np.array(recalls), np.array(precisions)
    env = np.maximum.accumulate(precisions[::-1])[::-1]
    ap = 0.0
    for i in range(1, len(recalls)):
        ap += (recalls[i] - recalls[i - 1]) * env[i]
    return float(ap)


def reference_match(detections, gts, iou_match=0.5):
    """The nested loops that match_detections replaced, kept as its
    reference: per detection in score order, the first unused ground truth
    of the highest scalar IoU, if that IoU is >= iou_match and > 0."""
    used = {img: [False] * len(boxes) for img, boxes in gts.items()}
    flags = [False] * len(detections)
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i][1], i))
    for i in order:
        img, _, box = detections[i]
        best_j, best_iou = -1, 0.0
        for j, g in enumerate(gts.get(img, [])):
            if used.get(img, [])[j]:
                continue
            v = iou(box, g)
            if v >= iou_match and v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0:
            used[img][best_j] = True
            flags[i] = True
    return flags


def reference_fp_categories(detections, gts, similarity_groups,
                            iou_match=0.5):
    """The nested loops that fp_breakdown replaced, kept as its reference:
    each false positive's highest scalar IoU with same-class, same-group
    and other ground truth of its image, Loc > Sim > Oth at 0.1, then a
    stable sort by descending score over (class, detection) order."""
    group_of = {c: gi for gi, g in enumerate(similarity_groups) for c in g}
    fps = []
    for c in sorted(group_of):
        dets = [(d.image_id, d.score, d.box) for d in detections
                if d.class_label == c]
        cls_gts = {img: [g.box for g in glist if g.class_label == c]
                   for img, glist in gts.items()}
        flags = reference_match(dets, cls_gts, iou_match)
        for (img, score, box), is_tp in zip(dets, flags):
            if is_tp:
                continue
            max_same = max_sim = max_oth = 0.0
            for g in gts.get(img, []):
                v = iou(box, g.box)
                if g.class_label == c:
                    max_same = max(max_same, v)
                elif group_of[g.class_label] == group_of[c]:
                    max_sim = max(max_sim, v)
                else:
                    max_oth = max(max_oth, v)
            if max_same >= 0.1:
                cat = "Loc"
            elif max_sim >= 0.1:
                cat = "Sim"
            elif max_oth >= 0.1:
                cat = "Oth"
            else:
                cat = "BG"
            fps.append((score, cat))
    fps.sort(key=lambda t: -t[0])
    return [cat for _, cat in fps]


# Boxes on a coarse lattice, so that detections often coincide with,
# touch, nest in or partly overlap ground truth, and overlaps tie.
# Sides of 10 against 2 give IoUs of exactly 0.1, the taxonomy's threshold.
lattice_boxes = st.builds(Box, st.sampled_from([4, 6, 8, 10]),
                          st.sampled_from([4, 8]),
                          st.sampled_from([2, 4, 6, 10]),
                          st.sampled_from([2, 4, 6, 10]))
tied_scores = st.sampled_from([0.25, 0.5, 0.5, 0.75, 0.9])
IOU_MATCHES = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def labelled_scenes(draw):
    """Ground truth for images 0..2 (some with none), and detections on
    images 0..3 (image 3 never has ground truth) that often copy a ground
    truth box or each other."""
    gts = {img: draw(st.lists(st.builds(GroundTruth, lattice_boxes,
                                        st.integers(1, 4)), max_size=4))
           for img in range(3)}
    pool = [g.box for glist in gts.values() for g in glist]
    dets = []
    for _ in range(draw(st.integers(0, 14))):
        choices = pool + [d.box for d in dets]
        box = draw(st.sampled_from(choices) if choices and draw(st.booleans())
                   else lattice_boxes)
        dets.append(DetRecord(draw(st.integers(0, 3)), draw(st.integers(1, 4)),
                              draw(tied_scores), box))
    return dets, gts


def b(x, y, s=4.0):
    return Box(x, y, s, s)


def test_perfect_single_detection_ap_one():
    gts = {0: [b(10, 10)]}
    assert average_precision([(0, 0.9, b(10, 10))], gts) == 1.0


def test_duplicate_on_matched_gt_still_ap_one():
    gts = {0: [b(10, 10)]}
    dets = [(0, 0.9, b(10, 10)), (0, 0.8, b(10, 10))]
    assert average_precision(dets, gts) == 1.0


def test_tp_fp_tp_sequence_ap_five_sixths():
    gts = {0: [b(10, 10), b(30, 30)]}
    dets = [(0, 0.9, b(10, 10)), (0, 0.8, b(50, 50)), (0, 0.7, b(30, 30))]
    ap = average_precision(dets, gts)
    assert ap == pytest.approx(5 / 6, abs=1e-12)
    assert naive_ap(dets, gts) == Fraction(5, 6)


def test_no_gt_gives_zero_ap():
    assert average_precision([(0, 0.5, b(1, 1))], {}) == 0.0
    assert average_precision([], {0: [b(1, 1)]}) == 0.0


def test_matches_naive_oracle_on_random_configurations():
    rng = np.random.default_rng(31)
    for _ in range(400):
        n_det = int(rng.integers(0, 7))
        n_gt = int(rng.integers(0, 4))
        gts = {0: [Box(*rng.uniform(4, 28, 2), *rng.uniform(2, 10, 2))
                   for _ in range(n_gt)]}
        dets = [(0, float(np.round(rng.uniform(), 2)),
                 Box(*rng.uniform(4, 28, 2), *rng.uniform(2, 10, 2)))
                for _ in range(n_det)]
        ap = average_precision(dets, gts)
        assert ap == pytest.approx(float(naive_ap(dets, gts)), abs=1e-12)


def test_matches_reference_ap_bit_for_bit():
    # Scores rounded to one decimal tie often; several images and up to a
    # dozen ground truths give long, uneven PR curves.
    rng = np.random.default_rng(47)
    for _ in range(300):
        gts = {img: [Box(*rng.uniform(4, 28, 2), *rng.uniform(2, 10, 2))
                     for _ in range(int(rng.integers(0, 5)))]
               for img in range(3)}
        dets = [(int(rng.integers(0, 3)), float(np.round(rng.uniform(), 1)),
                 Box(*rng.uniform(4, 28, 2), *rng.uniform(2, 10, 2)))
                for _ in range(int(rng.integers(0, 25)))]
        # Near-copies of the ground truths, so that many detections match.
        dets += [(img, float(np.round(rng.uniform(), 1)),
                  Box(g.cx + rng.uniform(-1, 1), g.cy, g.w, g.h))
                 for img, glist in gts.items() for g in glist
                 if rng.uniform() < 0.7]
        assert average_precision(dets, gts) == reference_ap(dets, gts)


def test_ap_invariant_under_monotone_score_transform():
    rng = np.random.default_rng(8)
    gts = {0: [Box(*rng.uniform(5, 25, 2), *rng.uniform(3, 9, 2))
               for _ in range(3)]}
    dets = [(0, float(rng.uniform()), Box(*rng.uniform(5, 25, 2),
                                          *rng.uniform(3, 9, 2)))
            for _ in range(6)]
    base = average_precision(dets, gts)
    squashed = [(img, 0.1 + 0.5 * s ** 3, box) for img, s, box in dets]
    assert average_precision(squashed, gts) == pytest.approx(base, abs=1e-12)


def test_matching_is_deterministic_for_equal_scores():
    gts = {0: [b(10, 10)]}
    dets = [(0, 0.5, b(10, 10)), (0, 0.5, b(10.5, 10))]
    flags = match_detections(dets, gts)
    assert flags == [True, False]


@given(labelled_scenes(), IOU_MATCHES)
@settings(max_examples=300)
def test_matching_equals_reference_loops(scene, iou_match):
    dets, gts = scene
    for c in range(1, 5):
        cls_dets = [(d.image_id, d.score, d.box) for d in dets
                    if d.class_label == c]
        cls_gts = {img: [g.box for g in glist if g.class_label == c]
                   for img, glist in gts.items()}
        assert match_detections(cls_dets, cls_gts, iou_match) == \
            reference_match(cls_dets, cls_gts, iou_match)


def test_mean_ap_simple_means():
    gts = {0: [GroundTruth(b(10, 10), 1), GroundTruth(b(30, 30), 2)]}
    dets = [DetRecord(0, 1, 0.9, b(10, 10))]
    assert evaluate_detections(dets, gts, 2)[1] == 0.5
    dets.append(DetRecord(0, 2, 0.8, b(30, 30)))
    assert evaluate_detections(dets, gts, 2)[1] == 1.0


def test_mean_ap_skips_classes_without_gt():
    dets = [DetRecord(0, 1, 0.9, b(10, 10)), DetRecord(0, 2, 0.9, b(50, 50))]
    per_class_ap, map_value = evaluate_detections(
        dets, {0: [GroundTruth(b(10, 10), 1)]}, 2)
    assert per_class_ap == {1: 1.0}
    assert map_value == 1.0


def make_gts():
    return {0: [GroundTruth(b(10, 10), 1), GroundTruth(b(30, 30), 3)]}


def test_fp_category_loc_from_offset_same_class():
    gts = make_gts()
    # IoU with the class-1 GT is in [0.1, 0.5): poor localization.
    dets = [DetRecord(0, 1, 0.9, Box(13, 10, 4, 4))]
    bd = fp_breakdown(dets, gts, ((1, 2), (3, 4)))
    assert bd.categories == ["Loc"]


def test_fp_category_loc_from_duplicate():
    gts = make_gts()
    dets = [DetRecord(0, 1, 0.9, b(10, 10)),
            DetRecord(0, 1, 0.8, Box(10.2, 10, 4, 4))]
    bd = fp_breakdown(dets, gts, ((1, 2), (3, 4)))
    assert bd.categories == ["Loc"]


def test_fp_category_sim_and_oth():
    gts = make_gts()
    dets = [DetRecord(0, 2, 0.9, b(10, 10)),   # class-1 GT, same group
            DetRecord(0, 4, 0.8, b(10, 10))]   # class-1 GT, other group
    bd = fp_breakdown(dets, gts, ((1, 2), (3, 4)))
    assert bd.categories == ["Sim", "Oth"]


def test_fp_category_bg():
    gts = make_gts()
    dets = [DetRecord(0, 2, 0.9, b(60, 60))]
    bd = fp_breakdown(dets, gts, ((1, 2), (3, 4)))
    assert bd.categories == ["BG"]


def test_fp_categories_partition_all_false_positives():
    rng = np.random.default_rng(12)
    gts = {i: [GroundTruth(Box(*rng.uniform(8, 56, 2), *rng.uniform(4, 16, 2)),
                           int(rng.integers(1, 5))) for _ in range(2)]
           for i in range(4)}
    dets = [DetRecord(int(rng.integers(0, 4)), int(rng.integers(1, 5)),
                      float(rng.uniform()),
                      Box(*rng.uniform(8, 56, 2), *rng.uniform(4, 16, 2)))
            for _ in range(60)]
    bd = fp_breakdown(dets, gts, ((1, 2), (3, 4)))
    n_tp = 0
    for c in range(1, 5):
        cls_dets = [(d.image_id, d.score, d.box) for d in dets
                    if d.class_label == c]
        cls_gts = {i: [g.box for g in v if g.class_label == c]
                   for i, v in gts.items()}
        n_tp += sum(match_detections(cls_dets, cls_gts))
    assert len(bd.categories) == len(dets) - n_tp
    totals = bd.totals()
    assert sum(totals.values()) == len(bd.categories)
    assert bd.at_rank(len(dets)) == totals
    # Reference: each rank adds one to the category of its false positive.
    prev = dict.fromkeys(FP_CATEGORIES, 0)
    for r, cat in enumerate(bd.categories, start=1):
        counts = bd.at_rank(r)
        assert all(type(n) is int for n in counts.values())
        assert counts == {**prev, cat: prev[cat] + 1}
        prev = counts


@given(labelled_scenes(), IOU_MATCHES)
@settings(max_examples=300)
def test_fp_breakdown_equals_reference_loops(scene, iou_match):
    dets, gts = scene
    groups = ((1, 2), (3, 4))
    assert fp_breakdown(dets, gts, groups, iou_match).categories == \
        reference_fp_categories(dets, gts, groups, iou_match)


def test_at_rank_zero_and_without_false_positives():
    zero = dict.fromkeys(FP_CATEGORIES, 0)
    gts = make_gts()
    bd = fp_breakdown([DetRecord(0, 2, 0.9, b(60, 60))], gts, ((1, 2), (3, 4)))
    assert bd.categories == ["BG"]
    assert bd.at_rank(0) == zero
    clean = fp_breakdown([DetRecord(0, 1, 0.9, b(10, 10))], gts,
                         ((1, 2), (3, 4)))
    assert clean.categories == []
    assert clean.at_rank(0) == clean.at_rank(3) == clean.totals() == zero


def test_fp_breakdown_rejects_bad_groups():
    with pytest.raises(InvalidSimilarityGroupsError):
        fp_breakdown([], {}, ((1, 2), (2, 3)))


def test_evaluate_detections_and_report(tmp_path):
    gts = {0: [GroundTruth(b(10, 10), 1), GroundTruth(b(30, 30), 2)]}
    dets = [DetRecord(0, 1, 0.9, b(10, 10)), DetRecord(0, 2, 0.8, b(30, 30))]
    per_class, m = evaluate_detections(dets, gts, num_classes=4)
    assert per_class == {1: 1.0, 2: 1.0}
    assert m == 1.0
    report = format_report(per_class, m, fp_breakdown(dets, gts,
                                                      ((1, 2), (3, 4))))
    assert "mAP = 1.0000" in report


def test_detection_dump_round_trip(tmp_path):
    path = tmp_path / "dets.jsonl"
    dets = [DetRecord(3, 2, 0.75, Box(10.5, 11.25, 4.0, 6.5)),
            DetRecord(1, 1, 0.5, Box(20, 20, 3, 3))]
    write_detection_dump(path, dets)
    assert read_detection_dump(path) == dets


def test_detection_dump_rejects_unknown_version(tmp_path):
    path = tmp_path / "dets.jsonl"
    path.write_text('{"format_version": 9}\n')
    with pytest.raises(ValueError):
        read_detection_dump(path)
