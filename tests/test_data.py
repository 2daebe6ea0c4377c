import numpy as np
import pytest

from decision.data import (DomainSpec, UnlabeledSet, batch_iter,
                           generate_domain, split_train_eval)


def _spec(**kw):
    base = dict(kind="two-moons", n=100, seed=0)
    base.update(kw)
    return DomainSpec(**base)


def test_clean_moons_lie_on_canonical_arcs():
    ls = generate_domain(_spec(n=200, noise_std=0.0))
    pts = ls.x + np.array([0.5, 0.25])  # undo centering
    outer = pts[ls.y == 0]
    np.testing.assert_allclose(np.linalg.norm(outer, axis=1), 1.0, atol=1e-12)
    assert (outer[:, 1] >= -1e-12).all()
    inner = np.column_stack([1.0 - pts[ls.y == 1][:, 0], 0.5 - pts[ls.y == 1][:, 1]])
    np.testing.assert_allclose(np.linalg.norm(inner, axis=1), 1.0, atol=1e-12)


def test_even_split_between_classes_regardless_of_rotation():
    for rot in (0.0, 0.7, 2.0):
        ls = generate_domain(_spec(n=500, rotation=rot))
        assert np.bincount(ls.y).tolist() == [250, 250]


def test_full_corruption_decouples_labels_from_position():
    clean = generate_domain(_spec(n=4000, seed=3))
    corrupted = generate_domain(_spec(n=4000, seed=3, label_corruption=1.0))
    assert np.array_equal(clean.x, corrupted.x)
    match = float(np.mean(clean.y == corrupted.y))
    assert abs(match - 0.5) < 3 * np.sqrt(0.25 / 4000)


def test_generation_is_bit_identical_for_same_spec():
    a = generate_domain(_spec(noise_std=0.2, label_corruption=0.3))
    b = generate_domain(_spec(noise_std=0.2, label_corruption=0.3))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = generate_domain(_spec(noise_std=0.2, label_corruption=0.3, seed=1))
    assert not np.array_equal(a.x, c.x)


def test_sample_mean_tracks_translation_across_seeds():
    # the centered arcs have zero mean, so E[x] is exactly the translation;
    # per-coordinate variance is bounded by 0.75 + noise^2 for any rotation
    n, noise = 4000, 0.2
    bound = 3 * np.sqrt((0.75 + noise**2) / n)
    for seed in (1, 2, 3):
        ls = generate_domain(_spec(n=n, seed=seed, noise_std=noise,
                                   rotation=0.6, translation=(1.5, -0.5)))
        mean = ls.x.mean(axis=0)
        assert abs(mean[0] - 1.5) < bound
        assert abs(mean[1] + 0.5) < bound


def test_rotation_preserves_pairwise_geometry():
    a = generate_domain(_spec(seed=5, noise_std=0.1))
    b = generate_domain(_spec(seed=5, noise_std=0.1, rotation=0.9))
    da = np.linalg.norm(a.x[0] - a.x[1])
    db = np.linalg.norm(b.x[0] - b.x[1])
    assert da == pytest.approx(db, rel=1e-12)


def test_gaussian_mixture_counts_and_classes():
    ls = generate_domain(DomainSpec("gaussian-mixture", n=100, seed=0))
    assert ls.num_classes == 3
    assert sorted(np.bincount(ls.y).tolist()) == [33, 33, 34]


def test_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec("spiral", n=10, seed=0)
    with pytest.raises(ValueError):
        _spec(n=0)
    with pytest.raises(ValueError):
        _spec(label_corruption=1.5)
    with pytest.raises(ValueError):
        _spec(noise_std=-0.1)


# -- batching -------------------------------------------------------------------

def test_short_final_batch_is_kept():
    ls = generate_domain(_spec(n=10))
    batches = list(batch_iter(ls, 32, epoch_seed=0))
    assert len(batches) == 1 and len(batches[0]) == 10


def test_batches_partition_the_dataset():
    ls = generate_domain(_spec(n=45))
    batches = list(batch_iter(ls, 8, epoch_seed=1))
    assert [len(b) for b in batches] == [8, 8, 8, 8, 8, 5]
    got = np.vstack([b.x for b in batches])
    assert np.array_equal(np.sort(got, axis=0), np.sort(ls.x, axis=0))


def test_epoch_seed_changes_order_not_contents():
    ls = generate_domain(_spec(n=64))
    a = np.vstack([b.x for b in batch_iter(ls, 16, epoch_seed=0)])
    b = np.vstack([b.x for b in batch_iter(ls, 16, epoch_seed=1)])
    assert not np.array_equal(a, b)
    assert np.array_equal(np.sort(a, axis=0), np.sort(b, axis=0))


def test_unlabeled_batches_carry_no_labels():
    ul = generate_domain(_spec(n=20)).inputs_only()
    batch = next(batch_iter(ul, 8, epoch_seed=0))
    assert isinstance(batch, UnlabeledSet)
    assert not hasattr(batch, "y")


def test_split_is_disjoint_and_seeded():
    ls = generate_domain(_spec(n=100))
    tr, ev = split_train_eval(ls, 0.2, seed=4)
    assert len(tr) == 80 and len(ev) == 20
    all_rows = {tuple(r) for r in ls.x}
    assert {tuple(r) for r in tr.x} | {tuple(r) for r in ev.x} == all_rows
    tr2, ev2 = split_train_eval(ls, 0.2, seed=4)
    assert np.array_equal(tr.x, tr2.x) and np.array_equal(ev.x, ev2.x)
