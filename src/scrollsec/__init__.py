"""scrollsec: exact secant-locus geometry of rational normal scrolls over finite fields."""

from .errors import (
    BudgetExceededError,
    CodimTooSmallError,
    DimensionMismatchError,
    EmptyTypeError,
    EvenCharacteristicError,
    InvariantError,
    NonPrimeError,
    PointOnVarietyError,
    ScrollParseError,
    ScrollsecError,
    UnclassifiableSignatureError,
    VertexPointError,
    ZeroMatrixError,
    ZeroVectorError,
)
from .exactfield import (
    Binomial,
    FieldCtx,
    LinearSubspace,
    QForm,
    field_make,
    normalize_point,
    projective_points,
    qform_rank,
    row_reduce,
    rref,
    span_points,
)
from .scroll import (
    ScrollPoint,
    ScrollSpec,
    contains,
    embed,
    parse_scroll,
    quadric_generators,
    random_scroll_point,
    ruling_subspace,
    scroll_literal,
    scroll_new,
    special_subspaces,
    tangent_space,
)
from .secant import (
    SecantSignature,
    classify_with_data,
    secant_locus_points,
)
from .strata import (
    MembershipReport,
    member_A,
    member_B,
    member_tangent,
    member_U,
    member_secant_variety,
    stratum_geometric,
)
from .delpezzo import (
    AtlasEntry,
    DepthReport,
    atlas_enumerate,
    depth_predict,
    is_del_pezzo,
    project,
    veronese_classify,
)
from .oracle import (
    brute_membership,
    brute_secant_locus,
    check_lift_equalities,
    enumerate_points,
)

__version__ = "0.1.0"
