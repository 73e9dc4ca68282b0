"""kanforge: compile symbolic expressions into certified KAN networks.

The pipeline: parse an expression into a computation tree, annotate every
node with exact interval ranges and partial Lipschitz constants, realize each
node as a primitive B-spline block on its certified domain, schedule the
blocks sequentially with identity forwarding, and emit the network together
with a machine-checkable certificate (Lipschitz product, width, range, and
uniform error bounds).
"""

from .compiler import (
    Certificate,
    CertificationError,
    CompileConfig,
    CompileError,
    build_schedule,
    certify,
    check_certificate,
    compile_tree,
    dead_wire_elimination,
    recompute_certificate,
)
from .exprtree import (
    CompTree,
    Leaf,
    Node,
    OpKind,
    ParseError,
    TreeStats,
    eval_tree,
    parse_expression,
    render,
    tree_stats,
    validate_opset,
)
from .kannet import (
    KanNetwork,
    ProductReport,
    SchemaError,
    deserialize,
    forward,
    forward_batch,
    jacobian_fd,
    jacobian_lower_bound,
    lipschitz_product,
    serialize,
)
from .primblocks import Block, EdgeSplines, build_block
from .rangecert import (
    AnnotatedTree,
    Interval,
    LipBudget,
    NodeAnnotation,
    annotate_ranges,
    lip_budget,
    partial_lip,
    range_rule,
    verify_ranges_numerically,
)
from .spline import (
    Spline,
    cubic_interpolant,
    exact_poly_spline,
    pl_interpolant,
    spline_lipschitz,
    sup_error,
    uniform_knots,
)

__version__ = "0.1.0"
