"""Elliptic-curve additive homomorphic encryption over a pseudo-Mersenne
prime field, with fixed-base scalar multiplication, a concealed-aggregation
simulator, and an operation-count benchmark CLI."""

from .curve import (
    AffinePoint,
    CurveParams,
    JacobianPoint,
    builtin_curve,
    curve_from_config,
    ec_add_ajj,
    ec_add_jjj,
    ec_dbl_jj,
    ec_eq,
    ec_neg,
    lift,
    load_curve,
    on_curve,
    to_affine,
)
from .elgamal import (
    Ciphertext,
    KeyPair,
    ct_add,
    ct_from_bytes,
    ct_identity,
    ct_to_bytes,
    decrypt,
    encrypt,
    keygen,
    map_message,
    rmap,
)
from .field import (
    FieldElement,
    FieldParams,
    fe_add,
    fe_from_bytes,
    fe_from_int,
    fe_inv,
    fe_mul,
    fe_square,
    fe_sub,
    fe_to_bytes,
)
from .scalarmul import (
    PrecompTable,
    build_table,
    default_table,
    mul_binary,
    mul_interleave,
    mul_signed,
    split_scalar,
    wmof_recode,
)
from .aggsim import RoundResult, Scenario, emit_report, load_scenario, run_round

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
