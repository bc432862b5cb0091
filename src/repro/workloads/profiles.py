"""Calibrated per-benchmark workload profiles.

One profile per workload in the paper's Table 2, plus ``verilator-prebolt``
for the Section 6.1.4 BOLT comparison.  The knobs control the properties
that drive the paper's results:

* **footprint / BTB pressure** -- ``n_handlers`` x ``handler_blocks`` plus
  the library pool set the static branch count, well above the 8K-entry
  BTB (the paper selects workloads with L1-I MPKI > 10, Figure 13).
* **cold-branch recurrence** -- ``handler_zipf_s`` sets dispatch skew.
  Flatter = more distinct cold handlers between recurrences = more BTB
  capacity misses.
* **branch-type mix** -- the ``p_*_block`` weights reproduce each
  workload's Figure 6 miss breakdown.  Skia only captures direct
  unconditional jumps, calls and returns, so ``voter``/``sibench`` are
  call/return heavy while ``kafka`` is conditional heavy.
* **path diversity** -- loops with periodic in-body conditionals vary the
  line entry/exit offsets across iterations, which is what puts branch
  bytes into head/tail shadow regions (Section 2.5's observation).

The ``expected`` targets record the values read off the paper's figures;
EXPERIMENTS.md compares them with what this reproduction measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Instruction-length mix approximating x86-64 integer code (geomean ~3.9B).
DEFAULT_LENGTH_MIX: tuple[tuple[int, ...], tuple[float, ...]] = (
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
    (8, 16, 22, 18, 13, 8, 6, 4, 2, 2, 1),
)


@dataclass(frozen=True)
class PaperExpectations:
    """Per-workload values read off the paper's figures (approximate).

    Used only for reporting (EXPERIMENTS.md paper-vs-measured columns) and
    as qualitative calibration targets -- never by the simulator itself.
    """

    l1i_mpki_real: float       # Figure 13 "real system" bar
    ipc_gain_pct: float        # Figure 14, head+tail configuration
    gain_class: str            # "low" | "mid" | "high" qualitative bucket


@dataclass(frozen=True)
class WorkloadProfile:
    """Generator parameters for one synthetic workload."""

    name: str
    suite: str = "synthetic"

    # Code footprint.
    n_handlers: int = 1100
    n_lib_funcs: int = 1300
    handler_blocks: tuple[int, int] = (7, 14)
    lib_blocks: tuple[int, int] = (2, 5)
    block_instrs: tuple[int, int] = (1, 6)
    instruction_length_mix: tuple[tuple[int, ...], tuple[float, ...]] = (
        DEFAULT_LENGTH_MIX
    )
    function_alignment: int = 1
    layout_policy: str = "scatter"  # "scatter" | "shuffle"

    # Dispatch behaviour (cold-branch recurrence).
    handler_zipf_s: float = 1.0
    hot_handler_fraction: float = 0.15
    lib_call_skew: float = 2.0
    dispatch_run_range: tuple[int, int] = (1, 3)
    # Call-tree shape: each handler owns a private cluster of cold
    # helpers and also calls globally-hot libraries.
    private_lib_segment: int = 10
    p_hot_lib_call: float = 0.20

    # Block terminator mix (relative weights).
    p_cond_block: float = 0.40
    p_jmp_block: float = 0.16
    p_call_block: float = 0.24
    p_indirect_jmp_block: float = 0.015
    p_early_ret_block: float = 0.08

    # Control-flow texture.
    p_loop_backedge: float = 0.22
    loop_trip_range: tuple[int, int] = (3, 16)
    p_skip_forward: float = 0.70
    short_branch_block_span: int = 2
    # Periodic in-loop conditionals (path diversity; see codegen).
    p_pattern_cond: float = 0.60
    pattern_len_range: tuple[int, int] = (2, 5)
    pattern_density_range: tuple[float, float] = (0.3, 0.8)
    # Give skipped (cold) blocks SBB-eligible terminators.
    cold_path_eligible_bias: bool = True

    # Calibration targets from the paper (reporting only).
    expected: PaperExpectations = field(
        default=PaperExpectations(l1i_mpki_real=20.0, ipc_gain_pct=5.0,
                                  gain_class="mid")
    )

    def weights_sum(self) -> float:
        return (self.p_cond_block + self.p_jmp_block + self.p_call_block
                + self.p_indirect_jmp_block + self.p_early_ret_block)


def _profile(name: str, suite: str, *, l1i: float, gain: float,
             gain_class: str, **overrides) -> WorkloadProfile:
    return WorkloadProfile(
        name=name, suite=suite,
        expected=PaperExpectations(l1i_mpki_real=l1i, ipc_gain_pct=gain,
                                   gain_class=gain_class),
        **overrides,
    )


PROFILES: dict[str, WorkloadProfile] = {}


def _register(profile: WorkloadProfile) -> None:
    if profile.name in PROFILES:
        raise ValueError(f"duplicate profile {profile.name}")
    PROFILES[profile.name] = profile


# ----------------------------------------------------------------------
# The 16 workloads of Table 2 (+ pre-bolt verilator).
#
# Qualitative calibration, from the paper's Figures 6, 13, 14, 15, 18:
#   high gain:   voter, sibench (call/return heavy; big decoder-idle wins)
#   mid gain:    tpcc, ycsb, twitter, smallbank, tatp, noop, cassandra,
#                tomcat, dotty, finagle-http, verilator(bolted)
#   low gain:    kafka (cond-heavy misses), finagle-chirper,
#                speedometer2.0 (few BTB misses)
# ----------------------------------------------------------------------

# --- DaCapo ------------------------------------------------------------
_register(_profile(
    "cassandra", "DaCapo", l1i=22.0, gain=5.5, gain_class="mid",
    n_handlers=1050, n_lib_funcs=1250, handler_zipf_s=1.0,
    p_cond_block=0.46, p_call_block=0.22,
))
_register(_profile(
    "kafka", "DaCapo", l1i=16.0, gain=1.5, gain_class="low",
    # Conditional-heavy misses: big handlers, few calls/returns (Fig 6).
    n_handlers=850, n_lib_funcs=250, handler_blocks=(12, 24),
    handler_zipf_s=1.05,
    p_cond_block=0.74, p_call_block=0.05, p_jmp_block=0.10,
    p_early_ret_block=0.03, cold_path_eligible_bias=False,
    hot_handler_fraction=0.10,
))
_register(_profile(
    "tomcat", "DaCapo", l1i=24.0, gain=5.0, gain_class="mid",
    n_handlers=1150, n_lib_funcs=1300, handler_zipf_s=1.0,
    p_cond_block=0.48, p_call_block=0.22,
))

# --- Renaissance --------------------------------------------------------
_register(_profile(
    "finagle-chirper", "Renaissance", l1i=12.0, gain=1.5, gain_class="low",
    # Few BTB misses: small, concentrated footprint.
    n_handlers=280, n_lib_funcs=160, handler_zipf_s=1.3,
    hot_handler_fraction=0.30, dispatch_run_range=(4, 12),
))
_register(_profile(
    "finagle-http", "Renaissance", l1i=18.0, gain=4.0, gain_class="mid",
    n_handlers=850, n_lib_funcs=1000, handler_zipf_s=1.05,
))
_register(_profile(
    "dotty", "Renaissance", l1i=28.0, gain=5.5, gain_class="mid",
    n_handlers=1250, n_lib_funcs=1450, handler_blocks=(8, 16),
    handler_zipf_s=0.95,
    p_cond_block=0.50, p_call_block=0.20, p_loop_backedge=0.34,
))

# --- OLTP Bench (PostgreSQL) -------------------------------------------
_register(_profile(
    "tpcc", "OLTPBench", l1i=30.0, gain=6.5, gain_class="mid",
    n_handlers=1300, n_lib_funcs=1550, handler_zipf_s=0.95,
    p_call_block=0.27, p_early_ret_block=0.09,
))
_register(_profile(
    "ycsb", "OLTPBench", l1i=26.0, gain=6.0, gain_class="mid",
    n_handlers=1150, n_lib_funcs=1400, handler_zipf_s=0.98,
    p_call_block=0.26,
))
_register(_profile(
    "twitter", "OLTPBench", l1i=25.0, gain=5.5, gain_class="mid",
    n_handlers=1100, n_lib_funcs=1300, handler_zipf_s=1.0,
    p_call_block=0.25,
))
_register(_profile(
    "voter", "OLTPBench", l1i=32.0, gain=11.0, gain_class="high",
    # Call/return dominated (Fig 6): tiny library functions everywhere.
    n_handlers=1150, n_lib_funcs=1400, lib_blocks=(2, 4),
    handler_blocks=(8, 16), handler_zipf_s=0.90, p_loop_backedge=0.18,
    block_instrs=(1, 5),
    p_cond_block=0.25, p_call_block=0.38, p_jmp_block=0.20,
    p_early_ret_block=0.12, lib_call_skew=1.3,
))
_register(_profile(
    "smallbank", "OLTPBench", l1i=24.0, gain=6.0, gain_class="mid",
    n_handlers=1050, n_lib_funcs=1300, handler_zipf_s=1.0,
    p_call_block=0.27,
))
_register(_profile(
    "tatp", "OLTPBench", l1i=22.0, gain=5.5, gain_class="mid",
    n_handlers=1000, n_lib_funcs=1200, handler_zipf_s=1.0,
    p_call_block=0.26,
))
_register(_profile(
    "sibench", "OLTPBench", l1i=28.0, gain=10.0, gain_class="high",
    n_handlers=1100, n_lib_funcs=1350, lib_blocks=(2, 4),
    handler_blocks=(8, 15), handler_zipf_s=0.90, p_loop_backedge=0.18,
    block_instrs=(1, 5),
    p_cond_block=0.27, p_call_block=0.36, p_jmp_block=0.19,
    p_early_ret_block=0.11, lib_call_skew=1.3,
))
_register(_profile(
    "noop", "OLTPBench", l1i=20.0, gain=5.0, gain_class="mid",
    n_handlers=900, n_lib_funcs=1100, handler_zipf_s=1.05,
    p_call_block=0.25,
))

# --- Chipyard -----------------------------------------------------------
_register(_profile(
    "verilator-bolted", "Chipyard", l1i=35.0, gain=5.0, gain_class="mid",
    # BOLT is applied as a separate pass (bolt_optimize); this profile is
    # the underlying verilator code structure.
    n_handlers=1300, n_lib_funcs=400, handler_blocks=(8, 18),
    handler_zipf_s=0.9, p_cond_block=0.52, p_call_block=0.16,
    p_jmp_block=0.16, p_loop_backedge=0.24,
))
_register(_profile(
    "verilator-prebolt", "Chipyard", l1i=42.0, gain=10.27, gain_class="high",
    # The binary *before* BOLT: the same code base as verilator-bolted
    # but without BOLT's hot-path straightening -- more taken jumps on
    # hot paths (p_jmp up), link-order layout (shuffle) instead of
    # hot-first, and aligned (padded) functions.  See DESIGN.md: BOLT
    # produces a different binary, so the comparison is between two
    # generated textures plus the function-reordering pass.
    n_handlers=1300, n_lib_funcs=400, handler_blocks=(8, 18),
    handler_zipf_s=0.80, p_cond_block=0.46, p_call_block=0.16,
    p_jmp_block=0.28, p_loop_backedge=0.24,
    layout_policy="shuffle", function_alignment=16,
))

# --- BrowserBench -------------------------------------------------------
_register(_profile(
    "speedometer2.0", "BrowserBench", l1i=14.0, gain=1.8, gain_class="low",
    n_handlers=330, n_lib_funcs=190, handler_zipf_s=1.25,
    hot_handler_fraction=0.28, dispatch_run_range=(4, 12),
))


#: The 16 workloads of Table 2, in the paper's presentation order.
WORKLOAD_NAMES: tuple[str, ...] = (
    "cassandra", "kafka", "tomcat",
    "finagle-chirper", "finagle-http", "dotty",
    "tpcc", "ycsb", "twitter", "voter", "smallbank", "tatp", "sibench",
    "noop",
    "verilator-bolted",
    "speedometer2.0",
)


def get_profile(name: str) -> WorkloadProfile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
