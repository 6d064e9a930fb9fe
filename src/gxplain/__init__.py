"""Graph classifier training and mask-based prediction explanation."""

from .datasets import (
    Dataset,
    generate_ba2motifs,
    generate_motif_graphs,
    load_dataset,
    save_dataset,
)
from .errors import (
    DomainError,
    EmptyDataset,
    GxplainError,
    IndexOutOfRange,
    InvalidBudget,
    InvalidCount,
    InvalidGraph,
    MissingExplanation,
    NonFiniteLoss,
    NotUndirected,
    ParseError,
    ShapeMismatch,
    TooLarge,
    UnsupportedActivation,
    ValidationError,
    VersionMismatch,
)
from .explain import (
    ExplainConfig,
    Explanation,
    HardConcreteConfig,
    MaskSet,
    explain,
    explanation_to_dict,
    importance_from_mask,
    init_masks,
    learn_masks,
    load_explanation,
    node_importance,
    sample_hard_concrete,
    save_explanation,
)
from .graphs import (
    AttributedGraph,
    NodeSet,
    build_graph,
    node_induced_subgraph,
)
from .metrics import (
    EvalReport,
    GraphVerdict,
    default_prediction,
    evaluate,
    keep_top_attributes,
    resolve_budget,
    sweep,
    write_eval_csv,
)
from .model import (
    ForwardResult,
    GnnModel,
    Layer,
    MaskGradients,
    MaskedInput,
    forward,
    load_model,
    mask_gradients,
    save_model,
)
from .oracle import (
    MAX_ORACLE_NODES,
    OracleResult,
    occlusion_scores,
    oracle_report,
)
from .training import TrainResult, evaluate_accuracy, train_model

__version__ = "0.1.0"
