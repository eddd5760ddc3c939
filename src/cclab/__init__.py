"""Individual communication cost laboratory for tiny two-party protocols.

Protocol trees over bit-string inputs, canonical description languages
for protocols and finite sets, exhaustive per-input complexity measures,
profile and hard-instance constructions, and the verification suites
that re-check every headline claim.
"""

from .bits import (
    all_bitstrings,
    bits_from_hex,
    bits_to_hex,
)
from .codes import (
    PdlCode,
    SdlCode,
    budget_cap,
    decode_signature,
    enumerate_sets,
    enumerate_signature,
    pdl_complexity,
    pdl_decode,
    pdl_encode,
    sdl_decode,
    sdl_encode,
)
from .complexity import (
    INF,
    ComplexityProfile,
    Measure,
    find_hard_y,
    individual_cc,
    one_way_from_two_way,
    oneway_to_set,
    set_to_oneway,
    structure_function_profile,
    tcc_identity_profile,
)
from .constructions import (
    HardInstance,
    ReplayReport,
    equality_shortcut_protocol,
    fit_node_function,
    helpbit_hard_instance,
    large_rectangle_shortcut,
    message_protocol,
    prefix_protocol,
    replay_hard_instance,
    separating_index_set,
    th7_hard_instance,
    th7_protocol,
    verify_certificate,
)
from .errors import (
    AuditFailure,
    CclabError,
    DecodeError,
    RectangleViolation,
    UsageError,
)
from .functions import (
    FunctionSpec,
    equality_fn,
    identity_fn,
    inner_product_fn,
    parse_function,
    table_fn,
)
from .protocol import (
    HelpSpec,
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Speak,
    StuckLeaf,
    bob_message,
    cc_on_input,
    cc_with_help,
    computes_everywhere,
    computes_on,
    default_depth_cap,
    help_bit_totalizer,
    is_one_way,
    is_total,
    run,
    tree_has_stuck,
    value_as_help_protocol,
)
from .rectangles import (
    Rectangle,
    equality_diagonal_bound,
    gf2_rank,
    ip_rectangle_audit,
    rectangle_color,
    transcript_partition,
)
from .reference import equality_protocols
from .solver import dcc_exact
from .verify import SUITES, CheckResult, VerificationReport, run_suite

__version__ = "0.1.0"
