"""Sequential Monte Carlo learning of Ising couplings from echo experiments.

The package plays both quantum devices in software: an untrusted system that
produces measurement outcomes at hidden true couplings, and a trusted
simulator that scores hypotheses so a particle filter can learn the
couplings from adaptively designed experiments.
"""

__version__ = "0.1.0"

from .config import (
    EvaluatorConfig,
    ExperimentConfig,
    ModelConfig,
    PghSettings,
    ResampleConfig,
    RunConfig,
    emit_config,
    parse_config,
    parse_config_file,
)
from .design import PghConfig, fixed_schedule, pgh
from .errors import (
    DegenerateCloud,
    DimensionMismatch,
    HamlearnError,
    InsufficientData,
    QuadratureFailure,
    SchemaError,
    TooManyQubits,
    ZeroTotalWeight,
)
from .harness import (
    DecayFit,
    EnsembleResult,
    ExperimentRecord,
    LossTrajectory,
    TwoSegmentFit,
    build_evaluator,
    build_model,
    draw_truth,
    fit_decay,
    fit_two_segment,
    run_ensemble,
    run_trial,
    scaling_study,
    summarize_losses,
    trial_seeds_for,
)
from .models import (
    CLE,
    FULL_BASIS,
    IQLE,
    LIKELIHOOD_FLOOR,
    QLE,
    TWO_OUTCOME,
    ExperimentSpec,
    InteractionGraph,
    IsingModel,
    LikelihoodModel,
    SingleParameterModel,
    bitflip_wrap,
    dense_oracle_distribution,
    fwht,
    ising_energy,
    ising_outcome_distribution,
    noisy_likelihood,
    single_param_likelihood,
)
from .simulate import (
    EXACT,
    NOISY_EXACT,
    SAMPLED,
    LikelihoodEvaluator,
    SampleBudget,
    estimate_likelihood_sampled,
    plan_budget,
    required_samples,
    sample_outcome,
)
from .smc import (
    BayesUpdate,
    CredibleEllipse,
    Particle,
    ParticleCloud,
    bayes_update,
    credible_region,
    effective_sample_size,
    liu_west_resample,
    normalize_weights,
    posterior_covariance,
    posterior_mean,
    quadratic_loss,
    region_contains,
    uniform_cloud,
)
