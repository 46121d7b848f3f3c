"""Acceptance gate: the eight headline checks, one printed line each.

Each test exercises one numbered claim end to end at its stated tolerance
and prints a single PASS/FAIL line (visible with pytest -s or in captured
output).  Random checks use fixed seeds so a green gate stays green.
"""

import math
import time

import numpy as np

from unembed import (
    SoftmaxModel,
    UnembeddingSet,
    coargmax_feasible,
    coargmax_oracle_2d,
    cosine,
    cosine_forcing_translation,
    decision_regions,
    equivalent_model_pair,
    euclidean,
    example,
    example_names,
    export_grid_csv,
    inflated_bounds,
    load_model,
    nearest_neighbors,
    predict_proba_batch,
    save_model,
    scale_pair,
    tie_partners,
    translate,
)
from unembed.cli import main


def _emit(num: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def _random_model(rng, d_lo=2, d_hi=16, k_lo=2, k_hi=50) -> SoftmaxModel:
    d = int(rng.integers(d_lo, d_hi + 1))
    k = int(rng.integers(k_lo, k_hi + 1))
    vectors = rng.uniform(-5.0, 5.0, size=(k, d))
    labels = tuple(f"l{n}" for n in range(k))
    return SoftmaxModel(UnembeddingSet(labels, vectors))


def test_criterion_1_forced_cosines_on_unrestricted_fixture():
    start = time.perf_counter()
    u = example("unrestricted").model.unembeddings
    a, b = u.vector(0), u.vector(1)

    exact = cosine(a, b) == 0.8

    v_minus = cosine_forcing_translation(a, b, -1)
    antipodal = bool(np.array_equal(v_minus, [-0.75, -0.75]))
    moved = translate(u, v_minus)
    cos_minus = cosine(moved.vector(0), moved.vector(1))

    v_plus = cosine_forcing_translation(a, b, 1)
    moved = translate(u, v_plus)
    cos_plus = cosine(moved.vector(0), moved.vector(1))

    elapsed = time.perf_counter() - start
    ok = (
        exact
        and antipodal
        and abs(cos_minus + 1.0) < 1e-12
        and abs(cos_plus - 1.0) < 1e-12
        and elapsed < 1.0
    )
    assert _emit(
        1,
        ok,
        f"cos(l0,l1)=0.8 exactly: {exact}; forced {cos_minus!r} / "
        f"{cos_plus!r} within 1e-12; {elapsed:.3f}s < 1s",
    )


def test_criterion_2_probability_invariance_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    n_models = 1000
    worst = 0.0
    argmax_flips = 0
    for _ in range(n_models):
        model = _random_model(rng)
        points = rng.uniform(-3.0, 3.0, size=(100, model.d))
        base = predict_proba_batch(model, points)
        base_argmax = base.argmax(axis=1)

        shift = rng.uniform(-10.0, 10.0, size=model.d)
        variants = [model.with_unembeddings(translate(model.unembeddings, shift))]
        if model.k >= 2:
            i, j = rng.choice(model.k, size=2, replace=False)
            variants.extend(equivalent_model_pair(model, int(i), int(j)))

        for variant in variants:
            probs = predict_proba_batch(variant, points)
            worst = max(worst, float(np.abs(probs - base).max()))
            argmax_flips += int((probs.argmax(axis=1) != base_argmax).sum())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and argmax_flips == 0 and elapsed < 30.0
    assert _emit(
        2,
        ok,
        f"{n_models} models x 100 points: max |p - p'| = {worst:.3e} < 1e-12, "
        f"argmax flips = {argmax_flips}; {elapsed:.1f}s < 30s",
    )


def test_criterion_3_scaling_preserves_probabilities_not_distances():
    rng = np.random.default_rng(404)
    worst_prob = 0.0
    worst_dist_rel = 0.0
    for _ in range(50):
        model = _random_model(rng, d_hi=8, k_hi=20)
        points = rng.uniform(-3.0, 3.0, size=(100, model.d))
        base = predict_proba_batch(model, points)
        g = model.unembeddings.vectors
        for c in (0.1, 2.0, 10.0):
            scaled = scale_pair(model, c)
            # probabilities must be read at the matching scaled points
            probs = predict_proba_batch(scaled, points / c)
            worst_prob = max(worst_prob, float(np.abs(probs - base).max()))
            h = scaled.unembeddings.vectors
            for i in range(model.k):
                for j in range(i + 1, model.k):
                    before = euclidean(g[i], g[j])
                    after = euclidean(h[i], h[j])
                    worst_dist_rel = max(
                        worst_dist_rel, abs(after - c * before) / (c * before)
                    )
    ok = worst_prob < 1e-12 and worst_dist_rel < 1e-12
    assert _emit(
        3,
        ok,
        f"c in {{0.1, 2, 10}}: max |p - p'| = {worst_prob:.3e} < 1e-12, "
        f"max relative distance defect = {worst_dist_rel:.3e} < 1e-12",
    )


def test_criterion_4_centered_fixture_reproduction():
    u = example("centered").model.unembeddings
    checks = [
        abs(cosine(u.vector(0), u.vector(1)) - 0.96 / 2.96) < 1e-12,
        abs(
            cosine(u.vector(1), u.vector(2))
            - (-0.96 / (math.sqrt(2.96) * math.sqrt(0.9)))
        ) < 1e-12,
        abs(cosine(u.vector(2), u.vector(4)) - 0.8) < 1e-12,
        tie_partners(u, 2) == {1, 3},
        coargmax_feasible(u, 2, 4).verdict == "infeasible",
        set(nearest_neighbors(u, 2, "cosine", 2)) == {3, 4},
    ]
    ok = all(checks)
    assert _emit(
        4,
        ok,
        "cosines 0.96/2.96, -0.96/(sqrt(2.96)*sqrt(0.9)), 0.8 within 1e-12; "
        "tie partners of label 2 = {1, 3}; pair (2, 4) infeasible; "
        "cosine neighbors of label 2 = {3, 4} (neighbors are not the tie "
        f"partners): {checks}",
    )


def test_criterion_5_centered_unit_fixture_reproduction():
    u = example("centered_unit").model.unembeddings
    col_sums = float(np.abs(u.vectors.sum(axis=0)).max())
    norm_defect = float(np.abs(np.linalg.norm(u.vectors, axis=1) - 1.0).max())
    cos_01 = cosine(u.vector(0), u.vector(1))
    checks = [
        col_sums <= 1e-12,
        norm_defect <= 1e-12,
        abs(cos_01 - (-(2 * 0.95**2 - 1))) < 1e-12,
        abs(cos_01 - (-0.805)) < 1e-12,
        coargmax_feasible(u, 0, 1).verdict == "feasible",
        coargmax_feasible(u, 1, 3).verdict == "infeasible",
    ]
    ok = all(checks)
    assert _emit(
        5,
        ok,
        f"centered (max column sum {col_sums:.2e}) and unit-norm "
        f"(defect {norm_defect:.2e}) within 1e-12; cos(l0,l1) = {cos_01!r} "
        "= -0.805 within 1e-12; (0,1) feasible, (1,3) infeasible",
    )


def test_criterion_6_lp_matches_exact_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    n_instances = 1000
    separation = 1e-3
    pairs = disagreements = degenerate = 0
    for _ in range(n_instances):
        k = int(rng.integers(2, 13))
        while True:
            g = rng.uniform(-5.0, 5.0, size=(k, 2))
            diffs = g[:, None, :] - g[None, :, :]
            dist = np.sqrt((diffs**2).sum(-1))
            if k == 1 or dist[~np.eye(k, dtype=bool)].min() >= separation:
                break
        u = UnembeddingSet(tuple(f"l{n}" for n in range(k)), g)
        for i in range(k):
            for j in range(i + 1, k):
                pairs += 1
                rep = coargmax_feasible(u, i, j)
                assert rep.verdict in ("feasible", "degenerate", "infeasible")
                if rep.verdict == "degenerate":
                    degenerate += 1
                    continue
                if rep.feasible != coargmax_oracle_2d(u, i, j):
                    disagreements += 1
    elapsed = time.perf_counter() - start
    ok = (
        disagreements == 0
        and degenerate < pairs / 100.0
        and elapsed < 60.0
    )
    assert _emit(
        6,
        ok,
        f"{n_instances} instances, {pairs} pairs: {disagreements} "
        f"disagreements (need 0), {degenerate} degenerate "
        f"({100.0 * degenerate / pairs:.2f}% < 1%); {elapsed:.1f}s < 60s",
    )


def test_criterion_7_region_grids_byte_identical(tmp_path):
    model = example("unrestricted").model
    minus, plus = equivalent_model_pair(model, 0, 1)
    bounds = inflated_bounds(model.unembeddings)
    blobs = []
    for idx, variant in enumerate((model, minus, plus)):
        grid = decision_regions(variant, bounds, 200)
        path = tmp_path / f"grid{idx}.csv"
        export_grid_csv(grid, str(path))
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0
    assert _emit(
        7,
        ok,
        f"200x200 grids for the base model and both cosine-forced "
        f"equivalents: {len(blobs[0])} bytes each, byte-identical: "
        f"{blobs[0] == blobs[1] == blobs[2]}",
    )


def test_criterion_8_roundtrip_and_malformed_rejection(tmp_path):
    roundtrip_ok = True
    for name in example_names():
        model = example(name).model
        for ext in ("csv", "json"):
            path = str(tmp_path / f"{name}.{ext}")
            save_model(model, path)
            back = load_model(path)
            roundtrip_ok &= back.labels == model.labels
            roundtrip_ok &= bool(
                np.array_equal(back.unembeddings.vectors,
                               model.unembeddings.vectors)
            )

    malformed = {
        "ragged.csv": "label,dim_0,dim_1\na,1,2\nb,3\n",
        "duplicate.csv": "label,dim_0,dim_1\na,1,2\na,3,4\n",
        "nan.csv": "label,dim_0,dim_1\na,1,nan\nb,3,4\n",
    }
    exit_codes = {}
    for fname, text in malformed.items():
        bad = tmp_path / fname
        bad.write_text(text)
        exit_codes[fname] = main(["similarity", "--input", str(bad)])
    rejection_ok = all(code == 2 for code in exit_codes.values())
    ok = roundtrip_ok and rejection_ok
    assert _emit(
        8,
        ok,
        f"save/load round-trip exact for all fixtures (csv+json): "
        f"{roundtrip_ok}; malformed files exit 2: {exit_codes}",
    )
