"""Multisegment calculus over the type-A root lattice.

Exact combinatorics: segments and multisegments, the Knuth-Viennot peeling
map and recursive RSK transform, inverted semistandard bitableaux with their
grading shifts, admissible-sequence forms and BZ derivatives, and the
multipartition dictionary, all paired with brute-force oracles.
"""

import types

from .errors import (
    InvariantViolation,
    ParseError,
    PreconditionError,
    ShapeViolation,
    SizeGuardExceeded,
)
from .lattice import LaurentPoly, Weight, cartan_form, ell_form
from .multisegment import Multisegment, Segment, point_multisegment
from .rsk import (
    LadderSequence,
    bitableau_of,
    depth_function,
    is_permissible_pair,
    knuth_viennot,
    peel_trace,
    rsk_transform,
    width,
)
from .specht import (
    Multicharge,
    Multipartition,
    column_removal_check,
    content,
    content_multi,
    is_proper,
    is_restricted,
    ladder_of_partition,
    multiseg_of,
    pad,
    specht_rsk_verify,
)
from .strings import (
    AdmissibleSequence,
    MultiplicityTable,
    beta_of,
    bz_derivative,
    bz_string,
    c_prime_tuple,
    c_tuple,
    phi_multiseg,
    phi_weights,
    single_derivative,
    string_form,
    transfer_multiplicities,
)
from .tableaux import (
    BitableauPair,
    GammaDescriptor,
    InvertedSSYT,
    Partition,
    a_invariant,
    c_count,
    gamma_descriptor,
    ladders_of,
    residue_sequence,
    standard_tableaux,
)

# the public names are the classes, functions and exceptions imported above
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)

__version__ = "0.1.0"
