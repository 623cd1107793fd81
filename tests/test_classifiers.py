"""Twin-plane classifier tests: geometry, reductions, kernels, serialization."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from eigu.classifiers import (
    DegeneratePlaneError,
    HyperplanePair,
    ProblemBlocks,
    TrainSpec,
    build_blocks,
    class_matrices,
    kernel_table,
    kernel_values,
    model_from_json,
    model_to_json,
    plane_distances,
    plane_problems,
    predict,
    span_factor,
    train,
    train_with_blocks,
    universum_rows,
)
from eigu.dataio import LabeledDataset, make_folds, subset_universum
from eigu.eigsolve import SingularDenominatorError
from eigu.evaluation import DECADE_GRID, FoldTrainingError, run_cv
from eigu import classifiers, kernels
from eigu.kernels import KernelSpec, default_sigma
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
        assert _angle_to(model.coef1, np.array([1.0, -1.0])) <= 5.0, name
        assert _angle_to(model.coef2, np.array([1.0, 1.0])) <= 5.0, name
        accuracy = float(np.mean(predict(model, queries) == truth)) * 100.0
        assert accuracy == 100.0, name


def test_prediction_tie_goes_to_the_positive_class():
    model = HyperplanePair(
        trained_by="gepsvm",
        hyperparameters={},
        coef1=np.array([1.0, 0.0]),
        b1=0.0,
        coef2=np.array([0.0, 1.0]),
        b2=0.0,
        plane_norms=(1.0, 1.0),
    )
    assert model.mode == "linear"
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
        np.testing.assert_allclose(mirror.coef1, model.coef2, atol=1e-10, err_msg=name)
        np.testing.assert_allclose(mirror.coef2, model.coef1, atol=1e-10, err_msg=name)
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


@pytest.mark.parametrize("wide", [False, True], ids=["signed_zeros", "span"])
def test_plane_operands_equal_the_explicit_ridge_sum_bit_for_bit(wide):
    """Each operand matches ``own + delta * eye(q) - w1 * M1 - w2 * M2``, bytes included.

    Adding the ridge matrix turns every ``-0.0`` entry into ``+0.0``.  The
    planted blocks hold such entries, so an operand that kept one would
    differ in its bytes; span blocks hold exact zero rows past m1 (or
    m1 + m2), whose sign the BLAS decides.
    """
    rng = np.random.default_rng(9)
    if wide:  # span G/H/P: the rows past m1 (or m1 + m2) are exact zeros
        dataset = LabeledDataset(
            X1=rng.standard_normal((5, 30)), X2=rng.standard_normal((6, 30)) - 0.5,
            U=rng.standard_normal((4, 30)),
        )
        blocks = build_blocks(dataset, None)
    else:  # no Gram product gives -0.0, so the blocks are planted beside unrelated factors
        G, H, P = (M + M.T for M in rng.standard_normal((3, 7, 7)))
        for M in (G, H, P):
            M[np.abs(M) < 0.5] = -0.0
        F1, F2, FU = (rng.standard_normal((rows, 7)) for rows in (3, 4, 2))
        blocks = ProblemBlocks(G=G, H=H, P=P, F1=F1, F2=F2, FU=FU)
    G, H, P = blocks.G, blocks.H, blocks.P
    zeros = G[G == 0]
    assert zeros.size and (wide or np.signbit(zeros).all())
    delta = 1e-3
    ridge = delta * np.eye(G.shape[0])
    expected = {
        "gepsvm": ((G + ridge, H), (H + ridge, G)),
        "ugepsvm": ((G + ridge, H + P), (H + ridge, G + P)),
        "igepsvm": ((G + ridge - 0.3 * H, None), (H + ridge - 0.3 * G, None)),
        "iugepsvm": (
            (G + ridge - 0.2 * H - 0.05 * P, None),
            (H + ridge - 0.4 * G - 0.07 * P, None),
        ),
    }
    specs = {
        "gepsvm": TrainSpec(classifier="gepsvm", delta=delta),
        "ugepsvm": TrainSpec(classifier="ugepsvm", delta=delta),
        "igepsvm": TrainSpec(classifier="igepsvm", delta=delta, nu=0.3),
        "iugepsvm": TrainSpec(
            classifier="iugepsvm", delta=delta, gamma1=0.2, psi1=0.05, gamma2=0.4, psi2=0.07
        ),
    }
    for kind, spec in specs.items():
        for problem, (A, B) in zip(plane_problems(blocks, spec), expected[kind]):
            assert problem.A.tobytes() == A.tobytes(), kind
            assert (problem.B is None) == (B is None), kind
            if B is not None:
                assert problem.B.tobytes() == B.tobytes(), kind


def _block_kinds(planes_dataset) -> dict:
    """One block of each kind: narrow linear, wide (span factor) and rbf."""
    return {
        "narrow linear": build_blocks(planes_dataset, None),
        "wide": build_blocks(_wide_dataset("generic"), None),
        "rbf": build_blocks(planes_dataset, KernelSpec(family="rbf", sigma=0.8)),
    }


def test_blocks_and_their_denominators_equal_their_transposes_bit_for_bit(planes_dataset):
    """G, H and P, and ugepsvm's H + P and G + P, are symmetric to the last bit.

    No solve needs to symmetrize them, so each may be checked once per block.
    """
    kinds = _block_kinds(planes_dataset)
    assert kinds["wide"].basis is not None and kinds["rbf"].kernel is not None
    for kind, blocks in kinds.items():
        for name, M in (("G", blocks.G), ("H", blocks.H), ("P", blocks.P),
                        ("H + P", blocks.denominators[0]), ("G + P", blocks.denominators[1])):
            assert M.tobytes() == M.T.tobytes(), (kind, name)


def test_ugepsvm_forms_its_denominators_once_per_block(planes_dataset):
    for kind, blocks in _block_kinds(planes_dataset).items():
        problems = [
            plane_problems(blocks, replace(LINEAR_SPECS["ugepsvm"], delta=delta))
            for delta in (1e-4, 1e-2)
        ]
        for plane in (0, 1):
            assert problems[0][plane].B is problems[1][plane].B, (kind, plane)
            assert not problems[0][plane].B.flags.writeable, (kind, plane)
        np.testing.assert_array_equal(problems[0][0].B, blocks.H + blocks.P)
        np.testing.assert_array_equal(problems[0][1].B, blocks.G + blocks.P)


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
            np.testing.assert_array_equal(kernelized.coef1, linear.coef1, err_msg=name)
            np.testing.assert_array_equal(kernelized.coef2, linear.coef2, err_msg=name)
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
    alphas = [np.linalg.lstsq(Z.T, w, rcond=None)[0] for w in (linear.coef1, linear.coef2)]
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
    dense_blocks = class_matrices(dataset)
    for name, spec in LINEAR_SPECS.items():
        projected = train(dataset, spec)
        dense = train_with_blocks(dense_blocks, spec)
        for w_p, b_p, w_d, b_d in (
            (projected.coef1, projected.b1, dense.coef1, dense.b1),
            (projected.coef2, projected.b2, dense.coef2, dense.b2),
        ):
            z_p = np.append(w_p, b_p)
            z_d = np.append(w_d, b_d)
            overlap = abs(float(z_p @ z_d)) / (
                np.linalg.norm(z_p) * np.linalg.norm(z_d)
            )
            assert overlap == pytest.approx(1.0, abs=1e-7), name


def _wide_dataset(kind: str) -> LabeledDataset:
    """Fewer rows than features: generic, rank-deficient, or without a Universum."""
    rng = np.random.default_rng(12)
    X1 = rng.standard_normal((4, 30))
    X2 = rng.standard_normal((5, 30)) + 0.5
    U = rng.standard_normal((3, 30)) + 0.25
    if kind == "duplicated rows":
        X1 = np.vstack([X1[:2], X1[:2]])
        X2 = np.vstack([X2[:3], X1[:1], X2[:1]])
        U = np.vstack([X1[:1], X2[:2]])
    elif kind == "empty universum":
        U = np.zeros((0, 30))
    return LabeledDataset(X1=X1, X2=X2, U=U)


WIDE_KINDS = ("generic", "duplicated rows", "empty universum")


def _explicit_qr(dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """Q and R of the stacked augmented training rows, Q formed explicitly."""
    F = np.vstack([dataset.X1, dataset.X2, dataset.U])
    return np.linalg.qr(np.hstack([F, np.ones((F.shape[0], 1))]).T)


@pytest.mark.parametrize("kind", WIDE_KINDS)
def test_span_factor_blocks_equal_the_explicit_qr_blocks(kind):
    """Keeping Q as reflectors leaves R, and so G/H/P, bit for bit."""
    dataset = _wide_dataset(kind)
    blocks = build_blocks(dataset, None)
    assert blocks.basis is not None
    _, R = _explicit_qr(dataset)
    m1, m2 = dataset.m1, dataset.m2
    R1, R2, RU = R[:, :m1], R[:, m1 : m1 + m2], R[:, m1 + m2 :]
    assert np.array_equal(blocks.G, R1 @ R1.T)
    assert np.array_equal(blocks.H, R2 @ R2.T)
    assert np.array_equal(blocks.P, RU @ RU.T)


@pytest.mark.parametrize("kind", WIDE_KINDS)
def test_lazily_lifted_planes_match_the_explicit_q_lift(kind):
    dataset = _wide_dataset(kind)
    for name, spec in LINEAR_SPECS.items():
        # the rows train trains on: gepsvm and igepsvm take no Universum
        rows = replace(dataset, U=dataset.U[: universum_rows(name, dataset.p)])
        blocks = build_blocks(rows, None)
        Q, _ = _explicit_qr(rows)
        model = train_with_blocks(blocks, spec)
        # span coordinates carry the bias axis, so the bias is folded into coef
        assert model.span is blocks.basis and model.b1 == model.b2 == 0.0, name
        assert model.coef1.size == blocks.G.shape[0], name
        lifted = model.lifted()
        assert lifted.span is None and lifted.coef1.size == dataset.n, name
        planes = ((model.coef1, lifted.coef1, lifted.b1), (model.coef2, lifted.coef2, lifted.b2))
        for z, w, b in planes:
            explicit = Q @ z
            explicit /= np.linalg.norm(explicit)
            np.testing.assert_allclose(
                np.append(w, b), explicit, rtol=0, atol=1e-12, err_msg=name
            )
        np.testing.assert_allclose(model.plane_norms, lifted.plane_norms, rtol=0, atol=1e-12)
        trained = train(dataset, spec)
        assert trained.span is None
        assert np.array_equal(trained.coef1, lifted.coef1)
        assert np.array_equal(trained.coef2, lifted.coef2)


@pytest.mark.parametrize("kind", WIDE_KINDS)
def test_span_coordinates_give_the_lifted_distances(kind):
    dataset = _wide_dataset(kind)
    blocks = build_blocks(dataset, None)
    queries = np.random.default_rng(13).standard_normal((9, dataset.n))
    coords = blocks.basis.project(queries)
    assert coords.shape == (9, blocks.G.shape[0])
    assert coords.flags.owndata  # not a view that pins the feature-sized dormqr output
    for name, spec in LINEAR_SPECS.items():
        model = train_with_blocks(blocks, spec)
        lifted = model.lifted()
        for got, want in zip(
            plane_distances(model, queries, coords=coords), plane_distances(lifted, queries)
        ):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12, err_msg=name)
        # without coordinates a span model projects the queries itself
        assert np.array_equal(predict(model, queries), predict(lifted, queries)), name


def test_predict_checks_the_rows_it_reads():
    dataset = _wide_dataset(WIDE_KINDS[0])
    blocks = build_blocks(dataset, None)
    model = train_with_blocks(blocks, LINEAR_SPECS["gepsvm"])
    queries = np.random.default_rng(13).standard_normal((9, dataset.n))
    coords = blocks.basis.project(queries)
    unread = np.full_like(queries, np.nan)
    # with coordinates a span model reads them alone, so only they are checked
    assert np.array_equal(predict(model, unread, coords=coords), predict(model.lifted(), queries))
    with pytest.raises(ValueError, match="coords contain non-finite values"):
        predict(model, queries, coords=np.full_like(coords, np.nan))
    with pytest.raises(ValueError, match="coords must be 2-d with the model's"):
        predict(model, queries, coords=coords[:, :-1])
    with pytest.raises(ValueError, match="8 coords rows for 9 queries"):
        predict(model, queries, coords=coords[:-1])
    with pytest.raises(ValueError, match="queries contain non-finite values"):
        predict(model, unread)


@pytest.mark.parametrize("kind", ["narrow", "span", "rbf"])
def test_coords_give_the_bits_of_the_queries_mapped_here(kind):
    """A model scores the coordinates a basis made once as it scores the queries.

    The coordinates are the rows themselves (narrow), the span factor's
    projection of them, or their kernel rows from ``kernel_values``.
    """
    rng = np.random.default_rng(29)
    n = 40 if kind == "span" else 4
    dataset = LabeledDataset(
        X1=rng.standard_normal((9, n)), X2=rng.standard_normal((7, n)) + 0.5,
        U=rng.standard_normal((5, n)) + 0.25,
    )
    queries = rng.standard_normal((11, n))
    if kind == "narrow":
        blocks, coords = build_blocks(dataset, None), queries
    elif kind == "span":
        blocks = build_blocks(dataset, None, span_factor(dataset, queries))
        coords = blocks.basis.precomputed
    else:
        table = kernel_table(dataset, queries)
        kernel, F, coords = kernel_values(table, KernelSpec("rbf"), queries)
        blocks = build_blocks(dataset, kernel, table, None, (kernel, F, coords))
    for name, spec in LINEAR_SPECS.items():
        model = train_with_blocks(blocks, replace(spec, kernel=blocks.kernel))
        for got, want in zip(
            plane_distances(model, queries, coords=coords), plane_distances(model, queries)
        ):
            assert np.array_equal(got, want), name
        assert np.array_equal(predict(model, queries, coords=coords), predict(model, queries))


def test_coords_are_keyword_only(planes_dataset):
    """No caller can pass squared distances or coordinates in the old third position."""
    model = train(planes_dataset, LINEAR_SPECS["gepsvm"])
    queries = planes_dataset.X1
    for call in (predict, plane_distances):
        with pytest.raises(TypeError):
            call(model, queries, queries)


def test_a_wide_all_bias_plane_raises_through_train_and_run_cv():
    """All-zero rows put e_n in the row span: the plane is all bias."""
    zeros = LabeledDataset(X1=np.zeros((4, 8)), X2=np.zeros((4, 8)), U=np.zeros((0, 8)))
    spec = TrainSpec(classifier="gepsvm", delta=1e-4)
    assert build_blocks(zeros, None).basis is not None
    with pytest.raises(DegeneratePlaneError):
        train(zeros, spec)
    with pytest.raises(FoldTrainingError) as excinfo:
        run_cv(zeros, make_folds(zeros, 2, seed=0), spec)
    assert isinstance(excinfo.value.__cause__, DegeneratePlaneError)


def test_wide_ratio_planes_barely_move_along_the_delta_axis():
    """A ratio plane can lie in null(G), where delta only scales its value.

    With fewer class-1 rows than features, null(G) holds directions that
    pass through every class-1 row.  On such a direction the numerator
    z'(G + delta I)z is delta|z|^2, so the minimizer stays put while the
    eigenvalue grows in proportion to delta.  Rows on the scale of raw
    EEG coefficients make G's nonzero eigenvalues dwarf every grid delta.
    """
    rng = np.random.default_rng(11)
    dataset = LabeledDataset(
        X1=1e4 * rng.standard_normal((8, 40)),
        X2=1e4 * (rng.standard_normal((8, 40)) + 0.5),
        U=1e4 * rng.standard_normal((4, 40)),
    )
    planes, ratios = [], []
    for delta in DECADE_GRID:
        model = train(dataset, TrainSpec(classifier="ugepsvm", delta=delta))
        plane = np.append(model.coef1, model.b1)
        planes.append(plane / np.linalg.norm(plane))
        ratios.append(model.eigenvalues[0] / delta)
        own = np.abs(dataset.X1 @ model.coef1 + model.b1) / model.plane_norms[0]
        other = np.abs(dataset.X2 @ model.coef1 + model.b1) / model.plane_norms[0]
        assert own.max() < 1e-3 * other.min(), delta  # through every class-1 row
    overlaps = np.abs(np.array(planes) @ planes[0])
    assert overlaps.min() > 1.0 - 1e-6
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-3)


def test_coincident_degenerate_classes_raise():
    dataset = LabeledDataset(
        X1=np.zeros((1, 2)), X2=np.zeros((1, 2)), U=np.zeros((0, 2))
    )
    with pytest.raises(DegeneratePlaneError):
        train(dataset, TrainSpec(classifier="gepsvm", delta=1e-4))


def test_an_indefinite_ratio_numerator_names_the_plane():
    """G + delta*I must factor by Cholesky; the error names the plane.

    The class row 1e10 * (1, 1) gives G = 1e20 * ones((2, 2)), which absorbs
    delta = 1e-4 exactly, so the Cholesky factor's second pivot is exactly 0.
    """
    blocks = ProblemBlocks.of_rows(np.full((1, 2), 1e10), np.eye(2), np.zeros((0, 2)))
    assert np.array_equal(blocks.G + 1e-4 * np.eye(2), blocks.G)
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
    z = np.append(model.coef1, model.b1)
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
    with pytest.raises(ValueError, match="model mode 'kernel' contradicts its kernel None"):
        model_from_json(model_to_json(linear).replace('"mode": "linear"', '"mode": "kernel"'))


def test_model_files_round_trip_byte_for_byte(planes_dataset):
    """Saving a loaded model file writes the file it was loaded from.

    A wide model is saved lifted, so its file holds explicit weights as
    ``w1``/``w2`` and reloads as a dense linear model; an rbf model's file
    holds ``alpha1``/``alpha2`` over ``Z``.
    """
    wide = _wide_dataset("generic")
    span_model = train_with_blocks(build_blocks(wide, None), LINEAR_SPECS["ugepsvm"])
    assert span_model.span is not None
    rbf = TrainSpec(classifier="iugepsvm", delta=1e-5, kernel=KernelSpec(family="rbf"))
    models = {
        "narrow linear": (train(planes_dataset, LINEAR_SPECS["iugepsvm"]), ("w1", "w2")),
        "wide": (span_model, ("w1", "w2")),
        "rbf": (train(planes_dataset, rbf), ("alpha1", "alpha2", "Z")),
    }
    for name, (model, filled) in models.items():
        text = model_to_json(model)
        loaded = model_from_json(text)
        assert model_to_json(loaded) == text, name
        assert loaded.span is None and loaded.mode == model.mode, name
        payload = json.loads(text)
        for key in ("w1", "w2", "alpha1", "alpha2", "Z"):
            assert (payload[key] is not None) == (key in filled), (name, key)
    queries = np.random.default_rng(14).standard_normal((20, wide.n))
    loaded = model_from_json(model_to_json(span_model))
    np.testing.assert_array_equal(predict(loaded, queries), predict(span_model, queries))


def test_model_files_with_faulty_plane_arrays_fail_at_load(planes_dataset):
    """A file whose planes could not predict raises a ValueError naming the field."""
    linear = json.loads(model_to_json(train(planes_dataset, LINEAR_SPECS["iugepsvm"])))
    rbf_spec = TrainSpec(classifier="gepsvm", delta=1e-4, kernel=KernelSpec("rbf", sigma=0.8))
    kernel = json.loads(model_to_json(train(planes_dataset, rbf_spec)))
    faults = [
        (linear, {"w1": None}, "'w1' is missing"),
        (linear, {"w2": [1.0, 2.0, 3.0]}, "'w1' and 'w2' differ in length"),
        (linear, {"w1": [[1.0, 2.0]]}, "'w1' must be a non-empty 1-d array"),
        (linear, {"w2": []}, "'w2' must be a non-empty 1-d array"),
        (linear, {"w1": [1.0, "x"]}, "'w1' is not a numeric array"),
        (linear, {"w2": [1.0, float("nan")]}, "'w2' contains non-finite values"),
        (linear, {"plane_norms": [1.0, 0.0]}, "'plane_norms' must be two values > 0"),
        (linear, {"plane_norms": [1.0, float("inf")]}, "'plane_norms' contains non-finite"),
        (linear, {"plane_norms": [1.0]}, "'plane_norms' must be two values > 0"),
        (kernel, {"alpha2": None}, "'alpha2' is missing"),
        (kernel, {"alpha1": kernel["alpha1"][:-1]}, "'alpha1' and 'alpha2' differ in length"),
        (kernel, {"Z": None}, "'Z' is missing"),
        (kernel, {"Z": kernel["Z"][:-1]}, f"'Z' has {len(kernel['Z']) - 1} rows for"),
        (kernel, {"Z": kernel["alpha1"]}, "'Z' must be a non-empty 2-d array"),
    ]
    for payload, change, message in faults:
        with pytest.raises(ValueError, match=message):
            model_from_json(json.dumps({**payload, **change}))
    for payload in (linear, kernel):  # the files as written still load
        model_from_json(json.dumps(payload))


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


def test_a_data_driven_sigma_computes_the_distances_once(planes_dataset, monkeypatch):
    calls = []
    original = kernels.squared_distances

    def counted(rows_a, rows_b):
        calls.append((rows_a.shape[0], rows_b.shape[0]))
        return original(rows_a, rows_b)

    monkeypatch.setattr(kernels, "squared_distances", counted)
    monkeypatch.setattr(classifiers, "squared_distances", counted)
    blocks = build_blocks(planes_dataset, KernelSpec(family="rbf"))
    m = planes_dataset.m1 + planes_dataset.m2 + planes_dataset.p
    assert calls == [(m, m)]  # shared by the bandwidth rule and the Gram block
    monkeypatch.undo()
    assert blocks.kernel.sigma == default_sigma(blocks.basis.Z)


def _assert_close(got, want, message=""):
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12, err_msg=message)


def _assert_same_blocks(sliced, alone, message):
    for name in ("G", "H", "P"):
        _assert_close(getattr(sliced, name), getattr(alone, name), message)


@pytest.mark.parametrize("n", [40, 12])  # wide at every Universum size; wide only below u = 3
def test_a_prefix_of_one_basis_serves_every_universum_size(n):
    """Slicing the largest Universum's basis matches building each size alone."""
    rng = np.random.default_rng(n)
    pool = LabeledDataset(
        X1=rng.standard_normal((5, n)),
        X2=rng.standard_normal((5, n)) + 0.5,
        U=rng.standard_normal((8, n)) + 0.25,
    )
    queries = rng.standard_normal((7, n))
    largest = subset_universum(pool, pool.p, seed=3)
    table, span = kernel_table(largest, queries), span_factor(largest, queries)
    bare = span_factor(largest)  # no test rows
    rbf = TrainSpec(classifier="iugepsvm", delta=1e-5, kernel=KernelSpec(family="rbf"))
    linear = LINEAR_SPECS["iugepsvm"]
    wide_sizes = []
    for u in range(pool.p + 1):
        data = subset_universum(pool, u, seed=3)
        m = data.m1 + data.m2 + u
        alone_table = kernel_table(data, queries)
        sliced, alone = build_blocks(data, rbf.kernel, table.prefix(m)), build_blocks(data, rbf.kernel)
        _assert_same_blocks(sliced, alone, f"rbf, u = {u}")
        assert sliced.kernel.sigma == pytest.approx(alone.kernel.sigma, rel=1e-10)
        _assert_close(table.prefix(m).precomputed, alone_table.precomputed, f"u = {u}")
        coords = kernel_values(table.prefix(m), sliced.kernel, queries)[2]
        assert np.array_equal(
            predict(train_with_blocks(sliced, rbf), queries, coords=coords),
            predict(train_with_blocks(alone, rbf), queries),
        ), f"rbf, u = {u}"
        if n + 1 <= m:
            continue  # narrow: linear blocks read no basis
        wide_sizes.append(u)
        sliced, alone = build_blocks(data, None, span.prefix(m)), build_blocks(data, None)
        _assert_same_blocks(sliced, alone, f"linear, u = {u}")
        precomputed = span.prefix(m).precomputed
        assert np.array_equal(precomputed, bare.project(queries)[:, :m]), f"u = {u}"
        _assert_close(precomputed, alone.basis.project(queries), f"u = {u}")
        z = rng.standard_normal(m)
        _assert_close(sliced.basis.lift(z), alone.basis.lift(z), f"u = {u}")
        assert sliced.basis.weight_norm(z) == pytest.approx(alone.basis.weight_norm(z), rel=1e-10)
        assert np.array_equal(
            predict(train_with_blocks(sliced, linear), queries, coords=precomputed),
            predict(train_with_blocks(alone, linear), queries),
        ), f"linear, u = {u}"
    assert wide_sizes == (list(range(pool.p + 1)) if n == 40 else [0, 1, 2])


def test_a_kernel_table_must_come_from_the_dataset(planes_dataset):
    table = kernel_table(planes_dataset)
    smaller = LabeledDataset(X1=planes_dataset.X1, X2=planes_dataset.X2, U=planes_dataset.U[:5])
    with pytest.raises(ValueError, match="expansion rows"):
        build_blocks(smaller, KernelSpec(family="rbf", sigma=1.0), table)


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
