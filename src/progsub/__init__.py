"""Semi-supervised progressive subspace learning for image cubes.

A chain of linear projections plus a label readout is trained jointly:
graph-regularized layerwise pre-training (ADMM), then alternating
fine-tuning against one-hot class targets, evaluated with a nearest-neighbor
classifier.
"""

from .embedding import LinearEmbedding, lpp_fit, pca_fit
from .errors import FormatError, InputError, NumericalError, PipelineError
from .graphs import (GraphBundle, alignment_graph, assemble_fused,
                     knn_heat_graph, laplacian)
from .metrics import (ConfusionMatrix, MetricsReport, compute_metrics,
                      confusion, nn_classify)
from .model import (FitReport, ProjectionStack, finetune_projection,
                    fit_readout, fit_stack, objective_value, transform)
from .pretrain import (AdmmState, LayerTerms, PretrainReport,
                       constraint_gaps, prediction_terms, pretrain_layer,
                       prox_nonneg, prox_unit_ball, update_decoder,
                       update_duals, update_features, update_nonneg,
                       update_normed, update_projection)
from .superpixels import (Segmentation, segment_count, slic_segment,
                          superpixel_stream)
from .synthetic import SyntheticSpec, generate_synthetic
from .types import AdmmConfig, HyperParams, SampleSplit, one_hot_encode

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig", "AdmmState", "ConfusionMatrix", "FitReport",
    "FormatError", "GraphBundle", "HyperParams", "InputError",
    "LayerTerms", "LinearEmbedding", "MetricsReport", "NumericalError",
    "PipelineError", "PretrainReport", "ProjectionStack",
    "SampleSplit", "Segmentation", "SyntheticSpec", "alignment_graph",
    "assemble_fused", "compute_metrics", "confusion", "constraint_gaps",
    "finetune_projection",
    "fit_readout", "fit_stack", "generate_synthetic", "knn_heat_graph",
    "laplacian", "lpp_fit", "nn_classify",
    "objective_value", "one_hot_encode", "pca_fit", "prediction_terms",
    "pretrain_layer",
    "prox_nonneg", "prox_unit_ball", "segment_count", "slic_segment",
    "superpixel_stream", "transform",
    "update_decoder", "update_duals", "update_features", "update_nonneg",
    "update_normed", "update_projection",
]
