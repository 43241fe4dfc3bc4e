"""Pass-based compile pipeline for Para-CONV (tentpole of PR 3).

Decomposes the monolithic Section-3 pipeline into named, individually
timed passes over an explicit :class:`~repro.compiler.context.CompileContext`,
executed by a contract-checking
:class:`~repro.compiler.manager.PassManager`. ``ParaConv`` is now a thin
front-end over this package; the width search prunes candidates via
:func:`~repro.compiler.pipeline.width_lower_bound` and, after the kernel
stage, :func:`~repro.compiler.pipeline.kernel_stage_floor`, and reports
:class:`~repro.compiler.pipeline.CompileStats` on every result.
"""

from repro.compiler.context import ARTIFACTS, CompileContext
from repro.compiler.errors import (
    ArtifactError,
    CompilerError,
    DuplicatePassError,
    MissingPassError,
    PassContractError,
    PassInvariantError,
    PassOrderError,
    PipelineConfigError,
)
from repro.compiler.manager import PassManager
from repro.compiler.passes import (
    AllocatePass,
    AnalyzeEdgesPass,
    CompactKernelPass,
    CompilerPass,
    EmitSchedulePass,
    LivenessReweightPass,
    SolveRetimingPass,
    ValidateGraphPass,
    ValidateSchedulePass,
    ZeroDrPrepassPass,
)
from repro.compiler.pipeline import (
    PASS_REGISTRY,
    CompileStats,
    PipelineConfig,
    build_pass,
    kernel_stage_floor,
    transfer_critical_path,
    width_lower_bound,
)

__all__ = [
    "ARTIFACTS",
    "AllocatePass",
    "AnalyzeEdgesPass",
    "ArtifactError",
    "CompactKernelPass",
    "CompileContext",
    "CompileStats",
    "CompilerError",
    "CompilerPass",
    "DuplicatePassError",
    "EmitSchedulePass",
    "LivenessReweightPass",
    "MissingPassError",
    "PASS_REGISTRY",
    "PassContractError",
    "PassInvariantError",
    "PassManager",
    "PassOrderError",
    "PipelineConfig",
    "PipelineConfigError",
    "SolveRetimingPass",
    "ValidateGraphPass",
    "ValidateSchedulePass",
    "ZeroDrPrepassPass",
    "build_pass",
    "kernel_stage_floor",
    "transfer_critical_path",
    "width_lower_bound",
]
