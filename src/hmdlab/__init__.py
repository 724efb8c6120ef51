"""hmdlab: a desk-scale lab for hardware-performance-counter malware
detection, adversarial counter perturbations, and a moving-target defense."""

from .analysis import (
    BigCount,
    build_report,
    single_classifier_probability,
    sweep_curves,
    total_classifiers,
    total_combinations,
)
from .attack import (
    AttackBudget,
    Perturbation,
    SurrogateReport,
    craft_perturbation,
    inject,
    reverse_engineer,
    strengthen,
)
from .features import (
    CorrelationMatrix,
    FeatureScores,
    HpcGrouping,
    correlation_matrix,
    feature_importance_scores,
    propose_hpc_groups,
    univariate_select_k_best,
)
from .models import (
    ConfusionCounts,
    FeatureView,
    Metrics,
    TrainedClassifier,
    compute_metrics,
    input_gradient,
    train_classifier,
)
from .mtd import (
    Lfsr,
    MtdPool,
    MtdRunReport,
    classify_stream,
    design_pool,
    evaluate_pool_sweep,
)
from .traces import (
    HPC_CATALOG,
    Dataset,
    HpcTrace,
    default_profile,
    generate_synthetic_dataset,
    parse_perf_csv,
    split_train_test,
    write_perf_csv,
)

__version__ = "0.1.0"
