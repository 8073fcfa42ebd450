"""Skeleton-based posture recognition from 3D joint data.

Pipeline: 25-joint skeletons -> geometric features (normalized pairwise joint
distances, joint angles) -> standardized classifiers (one-vs-one SVM via SMO,
LDA/QDA, 1-NN) -> stratified evaluation with row-normalized confusion
matrices.
"""
from .classifiers import (
    CLASSIFIER_NAMES,
    ClassifierSpec,
    Knn1Model,
    LdaModel,
    MulticlassModel,
    OvoSvmModel,
    QdaModel,
    Standardizer,
    fit_standardizer,
    ovo_train,
    predict_batch,
    predict_label,
    train_classifier,
)
from .dataset import (
    LabeledDataset,
    ModelFile,
    SynthSpec,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    synth_generate,
)
from .evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    SplitSpec,
    confusion_matrix,
    evaluate,
    evaluate_grid,
    render_grid,
    render_report,
    stratified_split,
)
from .features import (
    AngleMode,
    FeatureConfig,
    FeatureVector,
    angle_features,
    config_fingerprint,
    extract,
    extract_matrix,
    joint_angle,
    normalizer,
    pairwise_distances,
)
from .kernels import KernelSpec, linear_kernel, polynomial_kernel
from .skeleton import (
    BONES,
    JOINT_NAMES,
    LABEL_NAMES,
    NUM_CLASSES,
    NUM_JOINTS,
    JointId,
    PostureLabel,
    Skeleton,
    bone_pairs_at_joint,
    validate_skeleton,
)
from .svm import BinarySvmModel, smo_train

__version__ = "0.1.0"
