"""Applying a protection plan: build the protected workload variant.

Two application paths, composable:

* **Bespoke ABFT kernels.**  Objects covered by a hand-written ABFT variant
  (``matmul_abft``, ``pf_abft``) swap the base workload for that variant —
  the checksum encode/verify/correct phases live in the kernels themselves.
* **Generic duplicate-and-compare, synthesised at the IR level.**  For
  objects with no bespoke kernel, :class:`DuplicatedWorkload` generates a
  wrapper kernel in the restricted dialect (compiled through
  :func:`repro.frontend.compile_kernel_source` into the same module as the
  base kernels): it calls the entry once per replica on shadow copies of
  every data object, then compares / majority-votes / adopts the output
  objects element-wise.  Because the shadow objects carry distinct names
  (``x__r2`` …), the protected program's fault-site space for the original
  object names is exactly the primary replica — the validation campaign
  measures the residual vulnerability of the *named* objects.

Replica executions are bit-identical in the fault-free run, so the
protected variant's golden outputs equal the baseline's bit-for-bit (the
test suite asserts this for every mode).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.frontend.compiler import compile_kernel_source, compile_kernels
from repro.ir.function import Module
from repro.ir.types import I64
from repro.protection.schemes import BESPOKE_ABFT_VARIANTS, get_scheme
from repro.vm.memory import DataObject, Memory
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.protection.advisor import ProtectionPlan


#: Wrapper behaviour per replication scheme name.
_MODE_BY_SCHEME = {
    "duplication": "vote",
    "reexec": "adopt",
    "detect_checksum": "detect",
}
#: Replica counts per wrapper mode (primary included).
_REPLICAS_BY_MODE = {"vote": 3, "adopt": 2, "detect": 2}
#: Preference order when several replication schemes land in one plan —
#: one wrapper covers the whole program, so the strongest mode wins.
_MODE_STRENGTH = {"vote": 2, "adopt": 1, "detect": 0}


class DuplicatedWorkload(Workload):
    """A workload wrapped in a generated duplicate-and-compare entry kernel.

    ``mode``:

    * ``"vote"`` — three executions, element-wise majority vote on every
      output object (and on the scalar return value);
    * ``"adopt"`` — two executions; on any output mismatch the replica's
      outputs (computed from untouched shadow inputs) are adopted;
    * ``"detect"`` — two executions; mismatches are only counted into the
      ``dwc_detect`` flag object, outputs stay as the primary produced them.
    """

    def __init__(self, base: Workload, mode: str = "adopt") -> None:
        if mode not in _REPLICAS_BY_MODE:
            raise ValueError(
                f"unknown duplication mode {mode!r}; "
                f"expected one of {sorted(_REPLICAS_BY_MODE)}"
            )
        super().__init__(seed=base.seed)
        self.base = base
        self.mode = mode
        self.replicas = _REPLICAS_BY_MODE[mode]
        self.name = f"{base.name}+dwc-{mode}"
        self.description = (
            f"{base.description} [duplicate-and-compare: {mode}, "
            f"{self.replicas} executions]"
        )
        self.code_segment = base.code_segment
        self.target_objects = tuple(base.target_objects)
        self.output_objects = tuple(base.output_objects)
        self.entry = "dwc_entry"
        self.max_steps = base.max_steps
        self.check_return_value = base.check_return_value

    @property
    def acceptance(self):
        return self.base.acceptance

    def kernels(self) -> Sequence[Callable]:
        return self.base.kernels()

    def module(self) -> Module:
        """Base kernels plus the synthesised wrapper, in one module."""
        if self._module is None:
            module = compile_kernels(list(self.kernels()), module_name=self.name)
            compile_kernel_source(self._wrapper_source(module), module)
            self._module = module
        return self._module

    def setup(self, memory: Memory) -> Dict[str, object]:
        args = self.base.setup(memory)
        wrapper_args: Dict[str, object] = dict(args)
        pointer_params = [
            key for key, value in args.items() if isinstance(value, DataObject)
        ]
        for replica in range(2, self.replicas + 1):
            for key in pointer_params:
                obj = args[key]
                wrapper_args[f"{key}__r{replica}"] = memory.allocate(
                    f"{obj.name}__r{replica}",
                    obj.element_type,
                    obj.count,
                    initial=obj.values(),
                )
        for key in self._compare_params(args):
            wrapper_args[f"vl_{key}"] = args[key].count
        if self.mode == "detect":
            wrapper_args["dwc_detect"] = memory.allocate("dwc_detect", I64, 1)
        return wrapper_args

    # ------------------------------------------------------------------ #
    # wrapper generation
    # ------------------------------------------------------------------ #
    def _compare_params(self, args: Dict[str, object]) -> List[str]:
        """Entry parameters bound to output objects, in output order."""
        by_object = {
            value.name: key
            for key, value in args.items()
            if isinstance(value, DataObject)
        }
        params = []
        for name in self.output_objects:
            key = by_object.get(name)
            if key is None:
                raise ValueError(
                    f"output object {name!r} of {self.base.name} is not bound "
                    f"to an entry parameter; cannot generate the compare loop"
                )
            params.append(key)
        return params

    def _wrapper_source(self, module: Module) -> str:
        """Source of the wrapper kernel, in the restricted dialect."""
        entry = module.get_function(self.base.entry)
        args = self.base.setup(Memory())
        pointer_params = {
            key for key, value in args.items() if isinstance(value, DataObject)
        }
        compare_params = self._compare_params(args)
        returns_value = not entry.return_type.is_void

        params: List[Tuple[str, str]] = [
            (arg.name, arg.type.name) for arg in entry.args
        ]
        for replica in range(2, self.replicas + 1):
            params.extend(
                (f"{arg.name}__r{replica}", arg.type.name)
                for arg in entry.args
                if arg.name in pointer_params
            )
        params.extend((f"vl_{key}", "i64") for key in compare_params)
        if self.mode == "detect":
            params.append(("dwc_detect", "i64*"))

        signature = ", ".join(f'{name}: "{spelling}"' for name, spelling in params)
        lines = [
            f'def dwc_entry({signature}) -> "{entry.return_type.name}":',
        ]

        def call_args(replica: int) -> str:
            return ", ".join(
                f"{arg.name}__r{replica}" if arg.name in pointer_params else arg.name
                for arg in entry.args
            )

        primary_args = ", ".join(arg.name for arg in entry.args)
        prefix = "rv1 = " if returns_value else ""
        lines.append(f"    {prefix}{self.base.entry}({primary_args})")
        for replica in range(2, self.replicas + 1):
            prefix = f"rv{replica} = " if returns_value else ""
            lines.append(f"    {prefix}{self.base.entry}({call_args(replica)})")

        if self.mode == "vote":
            lines.extend(self._vote_lines(compare_params, returns_value))
        elif self.mode == "adopt":
            lines.extend(self._adopt_lines(compare_params, returns_value))
        else:
            lines.extend(self._detect_lines(compare_params, returns_value))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _vote_lines(compare_params: List[str], returns_value: bool) -> List[str]:
        lines = []
        for key in compare_params:
            lines.extend(
                [
                    f"    for i in range(vl_{key}):",
                    f"        v1 = {key}[i]",
                    f"        v2 = {key}__r2[i]",
                    "        if v1 != v2:",
                    f"            v3 = {key}__r3[i]",
                    "            best = v2",
                    "            if v1 == v3:",
                    "                best = v1",
                    f"            {key}[i] = best",
                ]
            )
        if returns_value:
            lines.extend(
                [
                    "    rv = rv1",
                    "    if rv1 != rv2:",
                    "        rv = rv2",
                    "        if rv1 == rv3:",
                    "            rv = rv1",
                    "    return rv",
                ]
            )
        return lines

    @staticmethod
    def _adopt_lines(compare_params: List[str], returns_value: bool) -> List[str]:
        lines = ["    mismatch = 0"]
        for key in compare_params:
            lines.extend(
                [
                    f"    for i in range(vl_{key}):",
                    f"        if {key}[i] != {key}__r2[i]:",
                    "            mismatch = 1",
                ]
            )
        if returns_value:
            lines.extend(["    if rv1 != rv2:", "        mismatch = 1"])
        lines.append("    if mismatch > 0:")
        for key in compare_params:
            lines.extend(
                [
                    f"        for i in range(vl_{key}):",
                    f"            {key}[i] = {key}__r2[i]",
                ]
            )
        if returns_value:
            lines.extend(
                [
                    "    rv = rv1",
                    "    if mismatch > 0:",
                    "        rv = rv2",
                    "    return rv",
                ]
            )
        else:
            # keep the if-body non-empty when there is nothing to adopt
            lines.append("        mismatch = mismatch")
        return lines

    @staticmethod
    def _detect_lines(compare_params: List[str], returns_value: bool) -> List[str]:
        lines = ["    bad = 0"]
        for key in compare_params:
            lines.extend(
                [
                    f"    for i in range(vl_{key}):",
                    f"        if {key}[i] != {key}__r2[i]:",
                    "            bad = bad + 1",
                ]
            )
        if returns_value:
            lines.extend(["    if rv1 != rv2:", "        bad = bad + 1"])
        lines.append("    dwc_detect[0] = bad")
        if returns_value:
            lines.append("    return rv1")
        return lines


# --------------------------------------------------------------------- #
# plan application
# --------------------------------------------------------------------- #
def apply_plan(plan: "ProtectionPlan") -> Workload:
    """Instantiate the protected workload variant a plan describes.

    Bespoke ABFT selections swap in the hand-written variant; any
    replication selections wrap the (possibly already swapped) workload in
    one generated duplicate-and-compare entry — the strongest requested
    mode wins, since a single wrapper covers every object.
    """
    from repro.workloads.registry import get_workload

    workload = get_workload(plan.workload, **plan.workload_kwargs)
    abft_selections = [s for s in plan.selections if get_scheme(s.scheme).kind == "abft"]
    if abft_selections:
        variant = BESPOKE_ABFT_VARIANTS.get(plan.workload)
        if variant is None:  # pragma: no cover - advisor only offers applicable
            raise ValueError(
                f"plan selects {abft_selections[0].scheme} but workload "
                f"{plan.workload!r} has no bespoke ABFT variant"
            )
        workload = get_workload(variant[0], **plan.workload_kwargs)

    modes = [
        _MODE_BY_SCHEME[s.scheme]
        for s in plan.selections
        if s.scheme in _MODE_BY_SCHEME
    ]
    if modes:
        mode = max(modes, key=lambda m: _MODE_STRENGTH[m])
        workload = DuplicatedWorkload(workload, mode=mode)
    return workload


def measure_overhead(base: Workload, protected: Workload) -> Dict[str, object]:
    """Measured golden-run op counts of base vs protected variants.

    Runs both sink-free (no event materialisation) and reports, from
    the runs' step counts, the extra-op delta the cost models predict.
    Also checks that the protected golden outputs are bit-identical to
    the baseline's — a protection transform must be a no-op on
    fault-free executions.
    """
    import numpy as np

    base_outcome = base.golden_run()
    protected_outcome = protected.golden_run()
    outputs_identical = all(
        np.array_equal(
            base_outcome.outputs[name], protected_outcome.outputs[name]
        )
        for name in base.output_objects
    )
    # Return values only have to agree when both variants treat them as
    # application output (bespoke ABFT kernels return a bookkeeping
    # correction count and declare check_return_value=False).
    if base.check_return_value and protected.check_return_value:
        outputs_identical = outputs_identical and (
            base_outcome.return_value == protected_outcome.return_value
        )
    base_ops, protected_ops = base_outcome.steps, protected_outcome.steps
    return {
        "base_ops": base_ops,
        "protected_ops": protected_ops,
        "extra_ops": protected_ops - base_ops,
        "overhead_ratio": (
            (protected_ops - base_ops) / base_ops if base_ops else 0.0
        ),
        "outputs_identical": outputs_identical,
    }
