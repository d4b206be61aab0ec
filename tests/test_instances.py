"""Instance containers, reward sampling, span projection, and generators."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbbai.errors import ConfigurationError, DegenerateInputError
from fbbai.instances import (IDENTITY, LOGISTIC, BanditInstance, MeanFunction,
                             ProjectedArmSet, gen_adaptive_instance,
                             gen_corner_instance, gen_logistic_instance,
                             gen_sphere_instance, gen_static_instance,
                             load_features, load_instance_csv, noiseless,
                             project_to_span, sample_rewards, _project_stack)


def triangle_instance(**kwargs):
    # linear predictors 1.0, 0.2, 0.6 by hand
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    return BanditInstance(features=feats, theta_star=np.array([1.0, 0.2]),
                          **kwargs)


class TestMeanFunctions:
    def test_logistic_matches_closed_form(self):
        z = np.array([-2.0, 0.0, 1.0])
        assert np.allclose(LOGISTIC.value(z), 1.0 / (1.0 + np.exp(-z)),
                           atol=1e-14)

    def test_logistic_saturates_without_overflow(self):
        vals = LOGISTIC.value(np.array([800.0, -800.0]))
        assert vals[0] == 1.0 and vals[1] == 0.0
        dv = LOGISTIC.derivative(np.array([800.0, -800.0]))
        assert np.all(dv >= 0.0) and np.all(dv < 1e-12)

    def test_logistic_derivative_peaks_at_one_quarter(self):
        assert LOGISTIC.derivative(np.array([0.0]))[0] == pytest.approx(0.25)

    def test_shipped_links_are_monotone(self):
        assert IDENTITY.check_monotone()
        assert LOGISTIC.check_monotone()

    def test_non_monotone_function_is_detected(self):
        bumpy = MeanFunction(value=np.sin, derivative=np.cos, name="sin")
        assert not bumpy.check_monotone()


class TestBanditInstance:
    def test_linear_means_and_gaps(self):
        inst = triangle_instance()
        assert np.allclose(inst.means, [1.0, 0.2, 0.6])
        assert inst.best_arm == 0
        assert np.allclose(inst.gaps, [0.0, 0.8, 0.4])
        assert inst.delta_min == pytest.approx(0.4)
        assert inst.has_unique_best()

    def test_glm_means_apply_the_link(self):
        inst = triangle_instance(model="glm", mean_fn=LOGISTIC)
        z = np.array([1.0, 0.2, 0.6])
        assert np.allclose(inst.means, 1.0 / (1.0 + np.exp(-z)))
        assert inst.best_arm == 0
        # gap before the link is read off the linear predictors
        assert inst.linear_delta_min == pytest.approx(0.4)

    def test_linear_delta_min_equals_delta_min_for_linear_model(self):
        inst = triangle_instance()
        assert inst.linear_delta_min == pytest.approx(inst.delta_min)

    def test_tied_best_reported_as_not_unique(self):
        inst = BanditInstance(features=np.array([[1.0, 0.0], [1.0, 0.0]]),
                              theta_star=np.array([1.0, 0.0]))
        assert not inst.has_unique_best()
        assert inst.best_arm == 0  # lowest index wins the tie

    def test_instances_hash_and_compare_by_identity(self):
        inst = triangle_instance()
        twin = dataclasses.replace(inst)  # equal fields, another instance
        assert inst == inst and inst != twin
        plans = {inst: "a", twin: "b"}
        assert plans[inst] == "a" and plans[twin] == "b"

    @pytest.mark.parametrize("kwargs", [
        dict(features=np.ones(3), theta_star=np.ones(3)),
        dict(features=np.ones((1, 2)), theta_star=np.ones(2)),
        dict(features=np.ones((3, 2)), theta_star=np.ones(3)),
        dict(features=np.array([[np.inf, 0.0], [0.0, 1.0]]),
             theta_star=np.ones(2)),
        dict(features=np.zeros((2, 2)), theta_star=np.ones(2)),
        dict(features=np.eye(2), theta_star=np.ones(2), model="cubic"),
        dict(features=np.eye(2), theta_star=np.ones(2), model="glm"),
        dict(features=np.eye(2), theta_star=np.ones(2), noise_sigma2=-1.0),
        dict(features=np.eye(2), theta_star=np.ones(2), noise_sigma2=np.nan),
        dict(features=np.eye(2), theta_star=np.ones(2), noise_sigma2=np.inf),
        dict(features=np.eye(2), theta_star=np.ones(2), bernoulli=True),
    ])
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(DegenerateInputError):
            BanditInstance(**kwargs)

    def test_bernoulli_needs_means_inside_unit_interval(self):
        with pytest.raises(DegenerateInputError):
            BanditInstance(features=np.eye(2), theta_star=np.array([3.0, 0.0]),
                           model="glm", mean_fn=IDENTITY, bernoulli=True)


class TestSampling:
    def test_noiseless_copy_is_deterministic(self):
        inst = noiseless(triangle_instance(noise_sigma2=5.0))
        assert inst.noise_sigma2 == 0.0
        ys = sample_rewards(inst, [0, 1, 2, 0], np.random.default_rng(0))
        assert np.array_equal(ys, [1.0, 0.2, 0.6, 1.0])

    def test_noiseless_strips_bernoulli_mode(self):
        inst = noiseless(gen_logistic_instance(4, 3, np.random.default_rng(3)))
        assert not inst.bernoulli
        ys = sample_rewards(inst, range(4), np.random.default_rng(0))
        assert np.allclose(ys, inst.means)

    def test_gaussian_sampling_is_seed_reproducible(self):
        inst = triangle_instance(noise_sigma2=2.0)
        a = sample_rewards(inst, [0, 1, 2], np.random.default_rng(42))
        b = sample_rewards(inst, [0, 1, 2], np.random.default_rng(42))
        assert np.array_equal(a, b)
        assert not np.allclose(a, inst.means)

    def test_bernoulli_sampling_gives_zero_one_rewards(self):
        inst = gen_logistic_instance(5, 3, np.random.default_rng(1))
        ys = sample_rewards(inst, [0] * 200, np.random.default_rng(2))
        assert set(np.unique(ys)) <= {0.0, 1.0}
        assert abs(ys.mean() - inst.means[0]) < 0.15


def projected_entries(sets, ids):
    """``_project_stack``'s output as one entry per set: its error, or its
    rank stack's rows made a ``ProjectedArmSet`` with ids ``ids[b]``."""
    errors, stacks = _project_stack(sets)
    out = dict(errors)
    for items, projected, basis in stacks:
        for k, b in enumerate(items.tolist()):
            out[b] = ProjectedArmSet(projected[k], basis[k], ids[b])
    return [out[b] for b in range(len(sets))]


class TestProjection:
    def test_projection_preserves_inner_products(self):
        rng = np.random.default_rng(7)
        arms = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
        proj = project_to_span(arms)
        assert proj.dim == 2
        assert proj.projected.shape == (5, 2)
        assert np.allclose(proj.projected @ proj.projected.T, arms @ arms.T,
                           atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10),
           d=st.integers(1, 8), rank=st.integers(1, 8))
    def test_projection_preserves_the_gram_matrix(self, seed, m, d, rank):
        rank = min(rank, m, d)
        rng = np.random.default_rng(seed)
        arms = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, d))
        ids = tuple(int(i) for i in rng.permutation(3 * m)[:m])
        proj = project_to_span(arms, ids=ids)
        gram = arms @ arms.T
        assert proj.dim == rank and proj.original_ids == ids
        assert np.allclose(proj.projected @ proj.projected.T, gram,
                           rtol=0.0, atol=1e-10 * max(1.0, np.abs(gram).max()))

    def test_full_rank_input_keeps_dimension(self):
        proj = project_to_span(np.eye(4))
        assert proj.dim == 4
        assert proj.original_ids == (0, 1, 2, 3)

    def test_explicit_ids_are_recorded(self):
        proj = project_to_span(np.eye(3), ids=(4, 7, 9))
        assert proj.original_ids == (4, 7, 9)

    def test_non_integer_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="must be integers"):
            project_to_span(np.eye(2), ids=(0.7, 1.9))
        proj = project_to_span(np.eye(2), ids=np.array([3, 5]))
        assert proj.original_ids == (3, 5)
        assert all(type(i) is int for i in proj.original_ids)

    def test_id_count_mismatch_rejected(self):
        for ids in [(0, 1), (0, 1, 2, 3)]:
            with pytest.raises(DegenerateInputError,
                               match="ids must match the number of rows"):
                project_to_span(np.eye(3), ids=ids)

    @pytest.mark.parametrize("arms", [np.ones(3), np.zeros((0, 3)),
                                      np.ones((2, 3, 3))],
                             ids=["1-d", "empty", "3-d"])
    def test_non_matrix_rejected(self, arms):
        with pytest.raises(DegenerateInputError,
                           match="active_features must be a nonempty 2-d array"):
            project_to_span(arms)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            project_to_span(np.zeros((3, 2)))

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, cell):
        arms = np.eye(3)
        arms[1, 2] = cell
        with pytest.raises(DegenerateInputError, match="finite"):
            project_to_span(arms)

    def test_only_the_non_finite_or_zero_entries_fail(self):
        rng = np.random.default_rng(13)
        sets = rng.standard_normal((6, 5, 3))
        sets[1, 0, 0] = np.nan
        sets[2, 4, 2] = np.inf
        sets[3] = 0.0
        sets[5, :, 2] = sets[5, :, 0]  # rank 2, unlike the others
        ids = [tuple(range(b, b + 5)) for b in range(6)]
        results = projected_entries(sets, ids)
        for b, result in enumerate(results):
            if b in (1, 2, 3):
                assert isinstance(result, DegenerateInputError)
                with pytest.raises(DegenerateInputError) as lone:
                    project_to_span(sets[b], ids[b])
                assert str(result) == str(lone.value)
                continue
            lone = project_to_span(sets[b], ids[b])
            assert result.projected.tobytes() == lone.projected.tobytes()
            assert result.basis.tobytes() == lone.basis.tobytes()
            assert result.original_ids == lone.original_ids == ids[b]
        assert [r.dim for r in results if not isinstance(r, Exception)] == [
            3, 3, 2]
        # a stack of only failing entries fails entry by entry
        assert all(isinstance(r, DegenerateInputError)
                   for r in projected_entries(sets[1:4], ids[1:4]))

    def test_basis_is_orthonormal(self):
        rng = np.random.default_rng(11)
        proj = project_to_span(rng.standard_normal((6, 4)))
        assert np.allclose(proj.basis.T @ proj.basis, np.eye(proj.dim),
                           atol=1e-12)


class _ZeroRng:
    """Generator stub whose draws never produce a usable instance."""

    def normal(self, *args, **kwargs):
        return np.zeros(kwargs.get("size", args[-1] if args else None))

    def uniform(self, lo, hi, size=None):
        return np.zeros(size)


class TestGenerators:
    @pytest.mark.parametrize("build, name", [
        (lambda rng: gen_static_instance(1.0, K=16.5), "K"),
        (lambda rng: gen_sphere_instance(8.5, 3, rng), "K"),
        (lambda rng: gen_adaptive_instance(2.5), "d"),
        (lambda rng: gen_corner_instance(3.5, rng), "K"),
        (lambda rng: gen_logistic_instance(4, 2.5, rng), "d"),
    ], ids=["static", "sphere", "adaptive", "corner", "logistic"])
    def test_non_integer_size_rejected(self, build, name):
        with pytest.raises(DegenerateInputError,
                           match=f"needs an integer {name}, not"):
            build(np.random.default_rng(0))

    def test_numpy_integer_sizes_accepted(self):
        rng = np.random.default_rng(0)
        assert gen_static_instance(1.0, K=np.int64(4)).n_arms == 4
        assert gen_sphere_instance(np.int32(5), np.int64(3), rng).dim == 3
        assert gen_adaptive_instance(np.uint8(3)).dim == 3
        assert gen_corner_instance(np.int64(4), rng).n_arms == 4
        assert gen_logistic_instance(np.int64(4), np.int32(2), rng).dim == 2

    def test_adaptive_geometry(self):
        inst = gen_adaptive_instance(9)
        assert inst.n_arms == 10 and inst.dim == 9
        assert inst.best_arm == 0
        assert inst.delta_min == pytest.approx(1.0 - math.cos(0.1))
        assert np.allclose(inst.features[-1],
                           [math.cos(0.1), math.sin(0.1)] + [0.0] * 7)

    def test_adaptive_rejects_degenerate_angle(self):
        with pytest.raises(DegenerateInputError):
            gen_adaptive_instance(4, omega=0.0)
        with pytest.raises(DegenerateInputError):
            gen_adaptive_instance(1)

    def test_static_gap_structure(self):
        inst = gen_static_instance(2.0, K=4)
        assert np.allclose(inst.means, [2.0, 0.0, 0.0, 0.0])
        assert inst.delta_min == pytest.approx(2.0)
        with pytest.raises(DegenerateInputError):
            gen_static_instance(0.0)
        with pytest.raises(DegenerateInputError):
            gen_static_instance(1.0, K=1)

    def test_sphere_arms_are_unit_norm_with_unique_best(self):
        inst = gen_sphere_instance(8, 3, np.random.default_rng(5))
        assert np.allclose(np.linalg.norm(inst.features, axis=1), 1.0)
        assert inst.has_unique_best()

    def test_sphere_generation_is_seed_reproducible(self):
        a = gen_sphere_instance(6, 4, np.random.default_rng(9))
        b = gen_sphere_instance(6, 4, np.random.default_rng(9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.theta_star, b.theta_star)

    def test_logistic_family_shape(self):
        inst = gen_logistic_instance(8, 5, np.random.default_rng(2))
        assert inst.model == "glm" and inst.bernoulli
        assert inst.noise_sigma2 == 0.25
        assert np.all(np.abs(inst.features) <= 0.5)
        assert inst.has_unique_best()

    def test_corner_fan_geometry(self):
        inst = gen_corner_instance(10, np.random.default_rng(4))
        assert inst.n_arms == 10 and inst.dim == 2
        assert np.allclose(np.linalg.norm(inst.features, axis=1), 1.0)
        assert np.allclose(inst.features[0], [1.0, 0.0])
        assert np.allclose(inst.features[-1],
                           [math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4)])
        assert inst.best_arm == 0
        with pytest.raises(DegenerateInputError):
            gen_corner_instance(2, np.random.default_rng(0))

    def test_resampling_gives_up_on_degenerate_stream(self):
        with pytest.raises(DegenerateInputError):
            gen_sphere_instance(4, 3, _ZeroRng())


class TestCsvLoading:
    def test_feature_roundtrip(self, tmp_path):
        path = tmp_path / "arms.csv"
        path.write_text("x1,x2\n1,0\n0,1\n0.5,0.5\n")
        feats = load_features(str(path))
        assert np.allclose(feats, [[1, 0], [0, 1], [0.5, 0.5]])

    def test_header_must_enumerate_columns(self, tmp_path):
        path = tmp_path / "arms.csv"
        path.write_text("a,b\n1,0\n")
        with pytest.raises(DegenerateInputError):
            load_features(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "arms.csv"
        path.write_text("")
        with pytest.raises(DegenerateInputError):
            load_features(str(path))
        path.write_text("x1,x2\n")
        with pytest.raises(DegenerateInputError):
            load_features(str(path))

    @pytest.mark.parametrize("bad_row, reason", [
        ("1,0,2", "3 cells, header has 2"),
        ("1", "1 cells, header has 2"),
        ("0.5,abc", "cell is not a number"),
        ("nan,1", "cell is not finite"),
        ("1,-inf", "cell is not finite"),
    ])
    def test_bad_rows_name_file_and_line(self, tmp_path, bad_row, reason):
        path = tmp_path / "arms.csv"
        path.write_text(f"x1,x2\n1,0\n\n{bad_row}\n0,1\n")
        with pytest.raises(DegenerateInputError) as err:
            load_features(str(path))
        assert str(err.value) == f"{path}, line 4: {reason}"

    def test_instance_from_files(self, tmp_path):
        arms = tmp_path / "arms.csv"
        arms.write_text("x1,x2\n1,0\n0,1\n")
        theta = tmp_path / "theta.txt"
        theta.write_text("0.5 -0.25\n")
        inst = load_instance_csv(str(arms), str(theta))
        assert np.allclose(inst.means, [0.5, -0.25])
        glm = load_instance_csv(str(arms), str(theta), model="glm")
        assert glm.mean_fn.name == "logistic"

    def test_theta_length_mismatch_rejected(self, tmp_path):
        arms = tmp_path / "arms.csv"
        arms.write_text("x1,x2\n1,0\n0,1\n")
        theta = tmp_path / "theta.txt"
        theta.write_text("1 2 3\n")
        with pytest.raises(DegenerateInputError, match="3 entries"):
            load_instance_csv(str(arms), str(theta))

    @pytest.mark.parametrize("text,reason", [
        ("1 a\n", "cell is not a number"),
        ("", "0 entries"),
        ("1 nan\n", "cell is not finite"),
    ])
    def test_bad_theta_files_name_the_file(self, tmp_path, recwarn, text, reason):
        arms = tmp_path / "arms.csv"
        arms.write_text("x1,x2\n1,0\n0,1\n")
        theta = tmp_path / "theta.txt"
        theta.write_text(text)
        with pytest.raises(DegenerateInputError) as err:
            load_instance_csv(str(arms), str(theta))
        assert str(err.value).startswith(f"{theta}: {reason}")
        assert not recwarn.list

    def test_theta_comments_and_lines(self, tmp_path):
        arms = tmp_path / "arms.csv"
        arms.write_text("x1,x2,x3\n1,0,0\n0,1,0\n0,0,1\n")
        theta = tmp_path / "theta.txt"
        theta.write_text("# theta star\n0.5\n-0.25 1e-1  # last two\n")
        inst = load_instance_csv(str(arms), str(theta))
        assert inst.theta_star.tolist() == [0.5, -0.25, 0.1]
