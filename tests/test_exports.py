"""The package's public surface is the union of its library modules'
``__all__`` lists, each name owned by one module."""

import importlib

import ridgepursuit

MODULES = ("approx", "dictionary", "greedy", "model", "penalty", "risk", "targets")

# Every name the package exported before it built ``__all__`` from the
# modules, and each added since, less those deleted on purpose; each must
# stay importable from the package.
EXPORTED = """
ACTIVATION_KINDS Activation BestDraw CoefficientPenalty CountableClassSpec
CoverSizeError DESIGN_LAWS Dataset FieldError GreedyConfig GreedyPath GreedyStep
INNER_STRATEGIES InnerResult LossReport NOISE_KINDS Noise PenValue PenaltyConfig
REGIMES RidgeModel RidgeUnit RiskRow SparseCover SpectralTarget TAIL_CLASSES
TruncatedModel best_of combined_unit_distance cover_count_library
cover_count_log_bound cover_counts default_m_grid enumerate_cover eval_target
eval_unit farthest_point_cells fit_and_select fit_lpgp gamma_tau gen_dataset
greedy_b_f greedy_bound_rhs inner_maximize lift line_search losses maurey_sample
mc_l2_sq_distance mc_l2_sq_distance_to mc_noise_check mc_symmetrization_check
pen_highdim pen_mixed pen_moderate pen_nonoise penalty_for_regime project_l1
quantize_to_net ramp_sample_distance_to ramp_sampler_normalizer resolvability_factors
risk_curve sample_ramp_model select_Bn shipped_class_specs sparsify_theta
spectral_norm stratified_maurey tail_tn target_gradient_at_zero truncate
tuning_highdim w_custom w_linear w_power write_csv
write_path_csv write_risk_csv
""".split()


def module_lists():
    return {name: importlib.import_module(f"ridgepursuit.{name}").__all__ for name in MODULES}


def test_package_exports_the_union_of_the_module_lists():
    union = [name for names in module_lists().values() for name in names]
    assert sorted(ridgepursuit.__all__) == sorted(union)


def test_no_name_is_owned_by_two_modules():
    owners = {}
    for module, names in module_lists().items():
        for name in names:
            assert name not in owners, f"{name} is in {owners.get(name)} and {module}"
            owners[name] = module


def test_every_name_resolves_to_its_module_object():
    for module, names in module_lists().items():
        mod = importlib.import_module(f"ridgepursuit.{module}")
        for name in names:
            assert getattr(ridgepursuit, name) is getattr(mod, name)


def test_earlier_exports_stay_importable():
    assert len(EXPORTED) == 79
    assert set(EXPORTED) <= set(ridgepursuit.__all__)
    for name in EXPORTED:
        getattr(ridgepursuit, name)
