"""Twin-plane classifier tests: geometry, reductions, kernels, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from eigu.classifiers import (
    AugmentedClassMatrices,
    DegeneratePlaneError,
    HyperplanePair,
    ProblemBlocks,
    TrainSpec,
    build_blocks,
    class_matrices,
    model_from_json,
    model_to_json,
    plane_distances,
    plane_problems,
    predict,
    train,
    train_with_blocks,
)
from eigu.dataio import LabeledDataset
from eigu.eigsolve import SingularDenominatorError
from eigu.kernels import KernelSpec
from eigu.synth import concentric_circles, cross_planes, mid_band_universum

from conftest import random_dataset

LINEAR_SPECS = {
    "gepsvm": TrainSpec(classifier="gepsvm", delta=1e-4),
    "igepsvm": TrainSpec(classifier="igepsvm", delta=1e-4, nu=0.1),
    "ugepsvm": TrainSpec(classifier="ugepsvm", delta=1e-4),
    "iugepsvm": TrainSpec(classifier="iugepsvm", delta=1e-5, gamma1=0.1, psi1=0.01),
}


def _angle_to(w, target):
    w = w / np.linalg.norm(w)
    target = target / np.linalg.norm(target)
    return float(np.degrees(np.arccos(min(1.0, abs(float(w @ target))))))


def test_cross_planes_geometry_and_training_accuracy(planes_dataset):
    """Each classifier recovers the two generating lines on clean data.

    Plane 1 fits the class near y = x, so its normal is close to (1, -1);
    plane 2 mirrors it.
    """
    queries = np.vstack([planes_dataset.X1, planes_dataset.X2])
    truth = np.concatenate([np.ones(planes_dataset.m1), -np.ones(planes_dataset.m2)])
    for name, spec in LINEAR_SPECS.items():
        model = train(planes_dataset, spec)
        assert _angle_to(model.w1, np.array([1.0, -1.0])) <= 5.0, name
        assert _angle_to(model.w2, np.array([1.0, 1.0])) <= 5.0, name
        accuracy = float(np.mean(predict(model, queries) == truth)) * 100.0
        assert accuracy == 100.0, name


def test_prediction_tie_goes_to_the_positive_class():
    model = HyperplanePair(
        mode="linear",
        trained_by="gepsvm",
        hyperparameters={},
        b1=0.0,
        b2=0.0,
        w1=np.array([1.0, 0.0]),
        w2=np.array([0.0, 1.0]),
        plane_norms=(1.0, 1.0),
    )
    labels = predict(model, np.array([[1.0, 1.0], [0.5, 1.0], [1.0, 0.5]]))
    np.testing.assert_array_equal(labels, [1.0, 1.0, -1.0])


def test_label_swap_exchanges_the_planes(planes_dataset):
    swapped = LabeledDataset(
        X1=planes_dataset.X2, X2=planes_dataset.X1, U=planes_dataset.U
    )
    rng = np.random.default_rng(0)
    queries = rng.uniform(-1, 1, size=(50, 2))
    for name, spec in LINEAR_SPECS.items():
        model = train(planes_dataset, spec)
        mirror = train(swapped, spec)
        np.testing.assert_allclose(mirror.w1, model.w2, atol=1e-10, err_msg=name)
        np.testing.assert_allclose(mirror.w2, model.w1, atol=1e-10, err_msg=name)
        assert mirror.b1 == pytest.approx(model.b2, abs=1e-10)
        assert mirror.b2 == pytest.approx(model.b1, abs=1e-10)
        d1, d2 = plane_distances(model, queries)
        ties = np.isclose(d1, d2)
        flipped = predict(mirror, queries)
        straight = predict(model, queries)
        np.testing.assert_array_equal(flipped[~ties], -straight[~ties], err_msg=name)


def test_empty_universum_reduces_to_the_plain_ratio_model():
    rng = np.random.default_rng(1)
    for _ in range(10):
        dataset = random_dataset(rng, n_max=8, m_max=25, p_max=0)
        blocks = build_blocks(dataset, None)
        plain = plane_problems(blocks, TrainSpec(classifier="gepsvm", delta=1e-3))
        with_u = plane_problems(blocks, TrainSpec(classifier="ugepsvm", delta=1e-3))
        for a, b in zip(plain, with_u):
            np.testing.assert_array_equal(a.A, b.A)
            np.testing.assert_array_equal(a.B, b.B)


def test_zero_psi_matched_gamma_reduces_to_the_difference_model():
    rng = np.random.default_rng(2)
    for _ in range(10):
        dataset = random_dataset(rng, n_max=8, m_max=25, p_max=10)
        blocks = build_blocks(dataset, None)
        nu = 0.37
        plain = plane_problems(blocks, TrainSpec(classifier="igepsvm", delta=1e-3, nu=nu))
        with_u = plane_problems(
            blocks,
            TrainSpec(classifier="iugepsvm", delta=1e-3, gamma1=nu, psi1=0.0),
        )
        for a, b in zip(plain, with_u):
            np.testing.assert_array_equal(a.A, b.A)
            assert a.B is None and b.B is None


def test_linear_kernel_reproduces_linear_labels():
    """A linear kernel spec trains the linear model itself."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        dataset = random_dataset(rng, n_max=6, m_max=20, p_max=8)
        probes = rng.standard_normal((40, dataset.n))
        queries = np.vstack([dataset.X1, dataset.X2, probes])
        for name, spec in LINEAR_SPECS.items():
            linear = train(dataset, spec)
            kernelized = train(
                dataset,
                TrainSpec(
                    classifier=spec.classifier,
                    delta=spec.delta,
                    nu=spec.nu,
                    gamma1=spec.gamma1,
                    psi1=spec.psi1,
                    kernel=KernelSpec(family="linear"),
                ),
            )
            assert kernelized.mode == "linear", name
            assert kernelized.hyperparameters["kernel"] == "linear", name
            assert kernelized.b1 == linear.b1 and kernelized.b2 == linear.b2, name
            np.testing.assert_array_equal(kernelized.w1, linear.w1, err_msg=name)
            np.testing.assert_array_equal(kernelized.w2, linear.w2, err_msg=name)
            np.testing.assert_array_equal(
                predict(kernelized, queries), predict(linear, queries), err_msg=name
            )


def test_saved_linear_kernel_models_still_predict(planes_dataset):
    """Model files in kernel mode with a linear kernel load and predict.

    The file holds expansion coefficients over Z with Z' alpha = w, so
    k(x, Z) alpha + b = x.w + b and the labels match the primal model.
    """
    linear = train(planes_dataset, LINEAR_SPECS["iugepsvm"])
    Z = np.vstack([planes_dataset.X1, planes_dataset.X2, planes_dataset.U])
    alphas = [np.linalg.lstsq(Z.T, w, rcond=None)[0] for w in (linear.w1, linear.w2)]
    payload = {
        "format_version": 1,
        "mode": "kernel",
        "trained_by": "iugepsvm",
        "hyperparameters": dict(linear.hyperparameters, kernel="linear"),
        "b1": linear.b1,
        "b2": linear.b2,
        "plane_norms": [float(np.linalg.norm(Z.T @ a)) for a in alphas],
        "eigenvalues": list(linear.eigenvalues),
        "w1": None,
        "w2": None,
        "alpha1": alphas[0].tolist(),
        "alpha2": alphas[1].tolist(),
        "kernel": {"family": "linear", "sigma": None},
        "Z": Z.tolist(),
    }
    saved = model_from_json(json.dumps(payload))
    assert saved.mode == "kernel" and saved.kernel == KernelSpec(family="linear")
    rng = np.random.default_rng(5)
    queries = np.vstack([Z, rng.standard_normal((200, 2))])
    np.testing.assert_array_equal(predict(saved, queries), predict(linear, queries))


def test_wide_data_projection_matches_the_dense_solve():
    """When rows are fewer than features the solve runs in the row span.

    The projected route must agree with a dense full-space solve wherever
    the latter is well conditioned.
    """
    rng = np.random.default_rng(4)
    dataset = LabeledDataset(
        X1=rng.standard_normal((3, 8)),
        X2=rng.standard_normal((3, 8)) + 0.4,
        U=rng.standard_normal((2, 8)),
    )
    dense_blocks = ProblemBlocks(mode="linear", matrices=class_matrices(dataset))
    for name, spec in LINEAR_SPECS.items():
        projected = train(dataset, spec)
        dense = train_with_blocks(dense_blocks, spec)
        for w_p, b_p, w_d, b_d in (
            (projected.w1, projected.b1, dense.w1, dense.b1),
            (projected.w2, projected.b2, dense.w2, dense.b2),
        ):
            z_p = np.append(w_p, b_p)
            z_d = np.append(w_d, b_d)
            overlap = abs(float(z_p @ z_d)) / (
                np.linalg.norm(z_p) * np.linalg.norm(z_d)
            )
            assert overlap == pytest.approx(1.0, abs=1e-7), name


def test_coincident_degenerate_classes_raise():
    dataset = LabeledDataset(
        X1=np.zeros((1, 2)), X2=np.zeros((1, 2)), U=np.zeros((0, 2))
    )
    with pytest.raises(DegeneratePlaneError):
        train(dataset, TrainSpec(classifier="gepsvm", delta=1e-4))


def test_an_indefinite_ratio_numerator_names_the_plane():
    """G + delta*I must be positive-definite; the error names the plane."""
    eye = np.eye(3)
    blocks = ProblemBlocks(
        mode="linear",
        matrices=AugmentedClassMatrices(G=-eye, H=eye, P=np.zeros((3, 3))),
    )
    with pytest.raises(SingularDenominatorError) as excinfo:
        train_with_blocks(blocks, TrainSpec(classifier="gepsvm", delta=1e-4))
    message = str(excinfo.value)
    assert "gepsvm (linear) plane 1" in message
    assert "numerator not positive-definite" in message


def test_universum_term_pushes_planes_off_the_band(planes_dataset):
    """Activating the Universum term increases plane distance to the band."""
    plain = train(planes_dataset, LINEAR_SPECS["gepsvm"])
    repelled = train(planes_dataset, LINEAR_SPECS["ugepsvm"])
    d_plain = plane_distances(plain, planes_dataset.U)
    d_repelled = plane_distances(repelled, planes_dataset.U)
    means_plain = [float(d.mean()) for d in d_plain]
    means_repelled = [float(d.mean()) for d in d_repelled]
    assert all(r >= p - 1e-12 for r, p in zip(means_repelled, means_plain))
    assert sum(means_repelled) > sum(means_plain)


def test_vanishing_nu_approaches_the_pure_own_class_solution():
    rng = np.random.default_rng(5)
    dataset = LabeledDataset(
        X1=rng.standard_normal((40, 5)),
        X2=rng.standard_normal((30, 5)) + 1.0,
        U=np.zeros((0, 5)),
    )
    delta = 1e-4
    model = train(dataset, TrainSpec(classifier="igepsvm", delta=delta, nu=1e-12))
    G = class_matrices(dataset).G
    values, vectors = np.linalg.eigh(G + delta * np.eye(6))
    reference = vectors[:, 0]
    z = np.append(model.w1, model.b1)
    z = z / np.linalg.norm(z)
    assert abs(float(z @ reference)) == pytest.approx(1.0, abs=1e-6)


def test_hyperparameters_recorded_verbatim(planes_dataset):
    spec = TrainSpec(classifier="iugepsvm", delta=1e-5, gamma1=1e-3, psi1=1e-5)
    model = train(planes_dataset, spec)
    assert model.hyperparameters == {
        "delta": 1e-5,
        "gamma1": 1e-3,
        "gamma2": 1e-3,
        "psi1": 1e-5,
        "psi2": 1e-5,
    }
    rbf = train(
        planes_dataset,
        TrainSpec(
            classifier="gepsvm", delta=1e-4, kernel=KernelSpec(family="rbf", sigma=0.5)
        ),
    )
    assert rbf.hyperparameters["kernel"] == "rbf"
    assert rbf.hyperparameters["sigma"] == 0.5


def test_serialization_round_trip(planes_dataset):
    rng = np.random.default_rng(6)
    queries = rng.uniform(-1, 1, size=(30, 2))
    linear = train(planes_dataset, LINEAR_SPECS["iugepsvm"])
    kernel = train(
        planes_dataset,
        TrainSpec(
            classifier="ugepsvm", delta=1e-4, kernel=KernelSpec(family="rbf", sigma=0.8)
        ),
    )
    for model in (linear, kernel):
        clone = model_from_json(model_to_json(model))
        assert clone.mode == model.mode
        assert clone.trained_by == model.trained_by
        assert clone.hyperparameters == model.hyperparameters
        np.testing.assert_array_equal(predict(clone, queries), predict(model, queries))
    with pytest.raises(ValueError):
        model_from_json(model_to_json(linear).replace('"format_version": 1', '"format_version": 99'))


def test_rbf_solves_the_circles_problem_where_linear_cannot():
    X1, X2 = concentric_circles(n_per_class=60, seed=7)
    dataset = LabeledDataset(X1=X1, X2=X2, U=np.zeros((0, 2)))
    queries = np.vstack([X1, X2])
    truth = np.concatenate([np.ones(60), -np.ones(60)])
    spec = TrainSpec(
        classifier="iugepsvm",
        delta=1e-5,
        gamma1=0.01,
        psi1=0.01,
        kernel=KernelSpec(family="rbf", sigma=1.0),
    )
    rbf_accuracy = float(np.mean(predict(train(dataset, spec), queries) == truth)) * 100
    linear_spec = TrainSpec(classifier="iugepsvm", delta=1e-5, gamma1=0.01, psi1=0.01)
    linear_accuracy = (
        float(np.mean(predict(train(dataset, linear_spec), queries) == truth)) * 100
    )
    assert rbf_accuracy >= 95.0
    assert linear_accuracy <= 70.0


def test_train_spec_validation():
    with pytest.raises(ValueError):
        TrainSpec(classifier="svm")
    with pytest.raises(ValueError):
        TrainSpec(classifier="gepsvm", delta=0.0)
    with pytest.raises(ValueError):
        TrainSpec(classifier="igepsvm", nu=0.0)
    with pytest.raises(ValueError):
        TrainSpec(classifier="iugepsvm", gamma1=-1.0)
    spec = TrainSpec(classifier="iugepsvm", gamma1=0.2, psi1=0.3, gamma2=0.4)
    assert spec.effective_gamma2 == 0.4
    assert spec.effective_psi2 == 0.3


def test_kernel_expansion_cap_is_enforced(planes_dataset, monkeypatch):
    spec = TrainSpec(
        classifier="gepsvm", delta=1e-4, kernel=KernelSpec(family="rbf", sigma=1.0)
    )
    monkeypatch.setattr("eigu.classifiers.GRAM_CAP", 10)
    with pytest.raises(ValueError) as excinfo:
        train(planes_dataset, spec)
    assert "cap 10" in str(excinfo.value)


def test_predict_validates_query_width(planes_dataset):
    model = train(planes_dataset, LINEAR_SPECS["gepsvm"])
    with pytest.raises(ValueError):
        predict(model, np.zeros((3, 5)))
