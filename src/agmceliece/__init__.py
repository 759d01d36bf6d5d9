"""McEliece over AG-code duals: the scheme, ECP decoding, and the
Schur-product key-recovery attack."""

from .field import Field, GF
from .code import LinearCode
from .curve import (
    OnePointCurve,
    ag_code,
    curve_from_descriptor,
    custom_curve,
    hermitian_curve,
    oracle_filtration,
    public_code,
    suzuki_curve,
)
from .ecp import EcpPair, EcpReport, ecp_decode, verify_ecp
from .mceliece import (
    Ciphertext,
    PublicKey,
    SecretKey,
    decrypt,
    designed_bounds,
    encrypt,
    keygen,
    legitimate_pair,
    scheme_t,
)
from .attack import (
    AttackTranscript,
    attack_decrypt,
    attack_pipeline,
    build_ecp,
    extended_filtration,
    filtration_step,
    filtration_step_doubling,
    init_filtration,
    recover_params,
    repair_degenerate,
    run_algorithm_1,
    run_algorithm_2,
)
from .params import ParamReport, attack_workfactor, isd_workfactor, scheme_params
from . import errors

__all__ = [
    "Field", "GF", "LinearCode",
    "OnePointCurve", "hermitian_curve", "suzuki_curve", "custom_curve",
    "curve_from_descriptor", "ag_code", "public_code", "oracle_filtration",
    "EcpPair", "EcpReport", "ecp_decode", "verify_ecp",
    "PublicKey", "SecretKey", "Ciphertext", "keygen", "encrypt", "decrypt",
    "legitimate_pair", "designed_bounds", "scheme_t",
    "AttackTranscript", "recover_params", "init_filtration", "filtration_step",
    "filtration_step_doubling", "run_algorithm_1", "run_algorithm_2",
    "repair_degenerate", "build_ecp", "attack_pipeline", "attack_decrypt",
    "extended_filtration",
    "ParamReport", "scheme_params", "isd_workfactor", "attack_workfactor",
    "errors",
]

__version__ = "0.1.0"
