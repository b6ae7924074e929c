"""Shipped lint rules.

Importing this package registers every rule with
:mod:`repro.analysis.registry`:

* ``LOC001`` locality (:mod:`repro.analysis.rules.locality`)
* ``LAY002`` layering (:mod:`repro.analysis.rules.layering`)
* ``RNG003`` reproducible randomness (:mod:`repro.analysis.rules.rng`)
* ``MUT004`` / ``EXC005`` Python pitfalls (:mod:`repro.analysis.rules.pitfalls`)
* ``CFG006`` config-key consistency (:mod:`repro.analysis.rules.config_keys`)
* ``DET007`` deterministic ordering (:mod:`repro.analysis.rules.determinism`)
* ``PAR008`` thread safety of pool payloads (:mod:`repro.analysis.rules.parallel_safety`)
* ``FLT009`` float hazards (:mod:`repro.analysis.rules.float_hazards`)
* ``TRC010`` observability misuse (:mod:`repro.analysis.rules.tracing`)
"""

from repro.analysis.rules import (  # noqa: F401  (import for registration side effect)
    config_keys,
    determinism,
    float_hazards,
    layering,
    locality,
    parallel_safety,
    pitfalls,
    rng,
    tracing,
)
