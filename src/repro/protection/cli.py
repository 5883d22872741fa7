"""``python -m repro protect`` — the selective-protection command line.

Subcommands (registered into the main ``repro`` parser by
:mod:`repro.campaigns.cli`)::

    repro protect plan WORKLOAD [--budget B] [options]   advise under a budget
    repro protect apply TARGET                           build + measure variant
    repro protect validate TARGET [--tests N]            closed-loop campaigns
    repro protect report [TARGET]                        render from the store

``TARGET`` is a plan id (``p0123abcd…`` as printed by ``plan``) or a
workload name, which resolves to that workload's most recent plan in the
store.  The store location comes from ``--store`` / ``REPRO_STORE`` exactly
like the campaign commands; all four verbs share one v3 SQLite file with
the campaign subsystem.

``plan`` consumes aDVF reports: live ones computed by the
:class:`~repro.core.advf.AdvfEngine` (the default) or rows persisted by a
previous campaign (``--campaign CAMPAIGN_ID``).
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from repro.reporting.tables import (
    format_protection_plan_table,
    format_table,
    format_validation_table,
)
from repro.workloads.registry import get_workload, validate_workload

if TYPE_CHECKING:  # pragma: no cover - import only needed for typing
    from repro.protection.advisor import ProtectionPlan

# Each verb imports the analysis and protection modules it runs, so that
# registering the ``protect`` parser costs every other command nothing.


def register(sub: argparse._SubParsersAction, common) -> None:
    """Attach the ``protect`` command tree to the main parser.

    ``common`` is the campaign CLI's shared option installer (``--store``).
    """
    protect = sub.add_parser(
        "protect", help="aDVF-guided selective protection (plan/apply/validate)"
    )
    psub = protect.add_subparsers(dest="action", required=True)

    plan = psub.add_parser("plan", help="advise protections under a budget")
    plan.add_argument("workload", help="registered workload name")
    plan.add_argument("--budget", type=float, default=2.0,
                      help="max extra ops as a multiple of base ops (default 2.0)")
    plan.add_argument("--objects", default=None,
                      help="comma-separated data objects (default: workload targets)")
    plan.add_argument("--schemes", default=None,
                      help="comma-separated scheme subset (default: all "
                           "registered schemes)")
    plan.add_argument("--method", choices=("auto", "exact", "greedy"),
                      default="auto", help="optimizer (default auto)")
    plan.add_argument("--campaign", default=None, metavar="CAMPAIGN_ID",
                      help="take aDVF reports from this stored campaign "
                           "instead of computing them live")
    plan.add_argument("--max-injections", type=int, default=60,
                      help="injection budget per object for live aDVF reports")
    plan.add_argument("--bit-stride", type=int, default=8,
                      help="bit stride of the live analysis error model")
    plan.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      help="workload constructor override (repeatable)")
    common(plan)

    for name, help_text in (
        ("apply", "instantiate the protected variant and measure its overhead"),
        ("validate", "run the closed-loop injection campaigns"),
    ):
        p = psub.add_parser(name, help=help_text)
        p.add_argument("target", help="plan id, or workload name (latest plan)")
        if name == "validate":
            p.add_argument("--tests", type=int, default=40,
                           help="max injections per object and variant")
            p.add_argument("--bit-stride", type=int, default=8,
                           help="bit stride of the site enumeration")
            p.add_argument("--workers", type=int, default=None,
                           help="worker processes for the validation "
                                "campaigns (default: $REPRO_WORKERS or "
                                "cores-1)")
            p.add_argument("--max-shards", type=int, default=None,
                           help="execute at most N shards per variant this "
                                "run (smoke/interrupt; resume by re-running)")
            p.add_argument("--shard-size", type=int, default=None,
                           help="specs per validation shard (checkpoint "
                                "granularity; default as campaign run)")
        common(p)

    report = psub.add_parser("report", help="plan + residual tables from the store")
    report.add_argument("target", nargs="?", default=None,
                        help="plan id or workload name; omit to list all plans")
    common(report)


# --------------------------------------------------------------------- #
# target resolution
# --------------------------------------------------------------------- #
def _resolve_plan(store, target: str) -> ProtectionPlan:
    """TARGET → plan: a stored plan id verbatim, or a workload's latest."""
    from repro.protection.advisor import ProtectionPlan

    if store.has_protection_plan(target):
        return ProtectionPlan.from_dict(store.protection_plan(target).plan)
    try:
        workload = validate_workload(target)
    except KeyError:
        raise SystemExit(
            f"{target!r} is neither a protection plan id in {store.path!r} "
            f"nor a known workload"
        ) from None
    records = store.protection_plans(workload=workload)
    if not records:
        raise SystemExit(
            f"no protection plans for workload {workload!r} in {store.path!r}; "
            f"run `repro protect plan {workload}` first"
        )
    return ProtectionPlan.from_dict(records[-1].plan)


# --------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------- #
def cmd_plan(args, open_store, parse_set, say) -> int:
    from repro.core.advf import AdvfEngine
    from repro.core.patterns import SingleBitModel
    from repro.core.reports import AnalysisConfig
    from repro.protection.advisor import ProtectionAdvisor
    from repro.protection.schemes import acquire_trace, get_scheme

    try:
        workload_name = validate_workload(args.workload)
    except KeyError as exc:
        raise SystemExit(str(exc)) from None
    kwargs = parse_set(args.set)
    workload = get_workload(workload_name, **kwargs)
    objects = (
        [part.strip() for part in args.objects.split(",") if part.strip()]
        if args.objects
        else list(workload.target_objects)
    )
    known = {obj.name for obj in workload.fresh_instance().memory.data_objects()}
    unknown = [name for name in objects if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown data object(s) {', '.join(unknown)} for workload "
            f"{workload_name!r}; available: {', '.join(sorted(known))}"
        )
    schemes = (
        [part.strip() for part in args.schemes.split(",") if part.strip()]
        if args.schemes
        else None
    )
    if schemes:
        try:
            schemes = [get_scheme(name).name for name in schemes]
        except KeyError as exc:
            raise SystemExit(str(exc).strip('"')) from None

    with open_store(args) as store:
        if args.campaign:
            if not store.has_campaign(args.campaign):
                raise SystemExit(
                    f"no campaign {args.campaign!r} in {store.path!r}"
                )
            record = store.campaign(args.campaign)
            # The campaign's measurements only commute with the advisor's
            # cost inputs when workload identity (name + kwargs) matches.
            if record.workload != workload_name:
                raise SystemExit(
                    f"campaign {args.campaign} measured workload "
                    f"{record.workload!r}, not {workload_name!r}"
                )
            if kwargs and kwargs != record.workload_kwargs:
                raise SystemExit(
                    f"campaign {args.campaign} ran with kwargs "
                    f"{record.workload_kwargs}, but --set gave {kwargs}; "
                    f"drop --set to adopt the campaign's kwargs"
                )
            if not kwargs and record.workload_kwargs:
                kwargs = dict(record.workload_kwargs)
                workload = get_workload(workload_name, **kwargs)
            reports = store.reports(args.campaign)
            missing = [name for name in objects if name not in reports]
            if missing:
                raise SystemExit(
                    f"campaign {args.campaign} has no stored aDVF reports for "
                    f"{', '.join(missing)}; run `repro campaign report` first"
                )
            reports = {name: reports[name] for name in objects}
            trace = acquire_trace(workload, workload_name, kwargs)
        else:
            say(f"computing aDVF reports for {', '.join(objects)} ...")
            engine = AdvfEngine(
                workload,
                AnalysisConfig(
                    max_injections=args.max_injections,
                    error_model=SingleBitModel(bit_stride=args.bit_stride),
                    equivalence_samples=1,
                    injection_samples_per_class=1,
                ),
            )
            reports = {name: engine.analyze_object(name) for name in objects}
            trace = engine.trace

        advisor = ProtectionAdvisor(
            workload, trace, workload_kwargs=kwargs, schemes=schemes
        )
        plan = advisor.advise(reports, budget=args.budget, method=args.method)
        store.save_protection_plan(
            plan.plan_id, plan.workload, plan.workload_kwargs, plan.budget,
            plan.to_dict(),
        )
        print(f"plan {plan.plan_id} ({plan.method}): "
              f"{len(plan.selections)} object(s) protected")
        print()
        print(format_protection_plan_table(plan.to_dict()))
    return 0


def cmd_apply(args, open_store, say) -> int:
    from repro.protection.apply import apply_plan, measure_overhead

    with open_store(args) as store:
        plan = _resolve_plan(store, args.target)
        say(f"applying plan {plan.plan_id} ({plan.workload}) ...")
        protected = apply_plan(plan)
        baseline = get_workload(plan.workload, **plan.workload_kwargs)
        measured = measure_overhead(baseline, protected)
        print(f"plan {plan.plan_id}: protected variant {protected.name!r}")
        print(
            f"measured overhead: {measured['extra_ops']} extra ops "
            f"({measured['overhead_ratio']:.2f}x of {measured['base_ops']}), "
            f"predicted {plan.predicted_extra_ops} "
            f"({plan.predicted_overhead:.2f}x)"
        )
        if not measured["outputs_identical"]:
            print("WARNING: protected golden outputs differ from the baseline; "
                  "plan left unapplied")
            return 1
        store.set_plan_status(plan.plan_id, "applied")
        print("golden outputs: bit-identical to the baseline")
    return 0


def cmd_validate(args, open_store, say) -> int:
    from repro.protection.validate import validate_plan

    with open_store(args) as store:
        plan = _resolve_plan(store, args.target)
        say(f"validating plan {plan.plan_id} "
            f"({len(plan.protected_objects())} object(s)) ...")
        extra = (
            {"shard_size": args.shard_size}
            if args.shard_size is not None
            else {}
        )
        # No explicit progress callback: the validation orchestrators emit
        # their own progress lines through the structured campaign logger.
        report = validate_plan(
            plan,
            store=store,
            bit_stride=args.bit_stride,
            max_tests=args.tests,
            workers=args.workers,
            max_shards=args.max_shards,
            **extra,
        )
        if not report.complete:
            print(f"plan {plan.plan_id}: validation interrupted "
                  f"(--max-shards); re-run `repro protect validate` to "
                  f"resume from the persisted shards")
            return 0
        print(f"plan {plan.plan_id}: validation complete")
        print()
        print(_validation_table(store, plan.plan_id))
    return 0


def cmd_report(args, open_store) -> int:
    with open_store(args) as store:
        if args.target is None:
            records = store.protection_plans()
            if not records:
                print(f"no protection plans in {store.path!r}")
                return 0
            print(
                format_table(
                    ["plan", "workload", "budget", "status", "objects"],
                    [
                        [
                            record.plan_id,
                            record.workload,
                            f"{record.budget:g}x",
                            record.status,
                            ", ".join(
                                s["object_name"]
                                for s in record.plan.get("selections", [])
                            ),
                        ]
                        for record in records
                    ],
                )
            )
            return 0
        plan = _resolve_plan(store, args.target)
        record = store.protection_plan(plan.plan_id)
        print(f"plan     : {plan.plan_id}")
        print(f"workload : {record.workload} {record.workload_kwargs or ''}".rstrip())
        print(f"status   : {record.status}")
        print()
        print(format_protection_plan_table(record.plan))
        runs = store.validation_runs(plan.plan_id)
        if runs:
            print()
            print(_validation_table(store, plan.plan_id))
        else:
            print()
            print("no validation runs yet; run `repro protect validate` "
                  "to close the loop")
    return 0


def _validation_table(store, plan_id: str) -> str:
    return format_validation_table(
        [
            {
                "object": run.object_name,
                "scheme": run.scheme,
                "variant": run.variant,
                "tests": run.tests,
                "successes": run.successes,
            }
            for run in store.validation_runs(plan_id)
        ]
    )


def dispatch(args, open_store, parse_set, say) -> int:
    """Route a parsed ``protect`` command (called from the main CLI)."""
    if args.action == "plan":
        return cmd_plan(args, open_store, parse_set, say)
    if args.action == "apply":
        return cmd_apply(args, open_store, say)
    if args.action == "validate":
        return cmd_validate(args, open_store, say)
    return cmd_report(args, open_store)
