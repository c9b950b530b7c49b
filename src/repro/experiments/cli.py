"""Command-line interface: run experiments without writing Python.

Usage (installed as ``python -m repro`` or the ``nest-repro`` script)::

    python -m repro list                 # machines, workloads, experiments
    python -m repro run --workload configure-llvm_ninja \
        --machine 5218_2s --scheduler nest --governor schedutil \
        --trace out.json                 # Perfetto trace (ui.perfetto.dev)
    python -m repro run --workload fig2 --trace t.json   # fig2's reference run
    python -m repro compare --workload dacapo-h2 --machine 6130_4s --jobs 8
    python -m repro sweep fig5           # the runs Figure 5's bench reads
    python -m repro sweep fig5 --seeds 2 --scale 0.3   # ...overridden
    python -m repro cache stats          # result-cache maintenance
    python -m repro obs dashboard        # self-contained HTML dashboard
    python -m repro obs analyze fig2 --scale 0.3   # text digest of a run
    python -m repro obs query fig2 --kind place --cpu 3   # event queries
    python -m repro history list         # archived sweeps (sqlite-backed)
    python -m repro history show         # the newest sweep and its runs
    python -m repro history export-trajectory --record .perfbench/*.out \
        --pr 7 --append BENCH_trajectory.json   # perf trajectory entries
    python -m repro describe fig5        # registry entry for an artefact
    python -m repro verify fuzz --runs 200 --seed 1   # invariant fuzzing
    python -m repro verify replay repro.json          # re-run a saved repro

Sweeping commands (``compare``, ``sweep``) parallelise over worker
processes (``--jobs`` / ``$REPRO_JOBS``, default: all cpus), consult
the content-addressed result cache under ``.repro-cache/`` unless
``--no-cache`` is given, and show a progress line with ``--progress``
(``--progress=plain`` for CI logs).  Every sweep archives itself into
``<cache>/history.sqlite`` (``--no-telemetry`` drops that row), with
each simulated run's worker pid and wall-clock times.  That history row
is the one record of a sweep: ``repro history list`` and ``show`` print
it, and ``repro obs dashboard`` renders it, worker timeline included,
as one self-contained HTML file.  A spec whose simulation raises stops
the sweep at once (``--keep-going`` skips it instead); only a crashed or
hung worker pool is retried (``--timeout`` bounds a hang).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

import dataclasses

from ..analysis.tables import pct, render_table
from ..faults import FAULT_PROFILES, FaultConfig, fault_profile
from ..hw.machines import ALL_MACHINES, get_machine
from ..obs.export import events_to_jsonl, write_chrome_trace
from ..obs.history import HistoryStore, append_trajectory, trajectory_entries
from ..obs.progress import make_view
from ..sched.registry import available_policies, iter_policy_infos
from ..workloads.catalog import make_workload, workload_names
from .cache import ResultCache
from .parallel import RunSpec, SweepExecutor, execute_spec
from .registry import EXPERIMENTS, get_experiment, reference_spec, specs_for
from .runner import STANDARD_COMBOS, compare

__all__ = ["build_parser", "main"]


def _existing_history(cache_dir) -> Optional[Path]:
    """The history sqlite next to the result cache it describes, or None
    (said on stderr) when no recorded sweep has created it."""
    path = ResultCache(Path(cache_dir) if cache_dir else None).root \
        / "history.sqlite"
    if not path.exists():
        print(f"no run history at {path} — run a sweep without "
              f"--no-telemetry first", file=sys.stderr)
        return None
    return path


def _executor_from_args(args) -> SweepExecutor:
    cache = None
    if not getattr(args, "no_cache", False):
        root = getattr(args, "cache_dir", None)
        cache = ResultCache(Path(root) if root else None)
    history = None
    if cache is not None and not getattr(args, "no_telemetry", False):
        history = HistoryStore(cache.root / "history.sqlite")
    return SweepExecutor(jobs=args.jobs, cache=cache,
                         timeout_s=getattr(args, "timeout", None),
                         skip_failures=getattr(args, "keep_going", False),
                         view=make_view(getattr(args, "progress", None),
                                        sys.stderr),
                         history=history)


def _faults_from_args(args) -> "FaultConfig | None":
    name = getattr(args, "faults", None)
    if not name or name == "none":
        return None
    cfg = fault_profile(name)
    return cfg if cfg.enabled else None


def _cmd_list(args) -> int:
    print("machines:")
    for key, m in ALL_MACHINES.items():
        print(f"  {key:12s} {m.describe()}")
    print("\nschedulers (policy registry):")
    for info in iter_policy_infos():
        suffix = ""
        if info.invariant_groups:
            suffix = (" [invariants: "
                      + ",".join(sorted(info.invariant_groups)) + "]")
        print(f"  {info.name:12s} {info.description}{suffix}")
    print("\nworkloads:")
    for name in workload_names():
        print(f"  {name}")
    print("\nexperiments (registry):")
    for exp_id, exp in EXPERIMENTS.items():
        print(f"  {exp_id:20s} {exp.artefact}: {exp.description}")
    return 0


def _cmd_run(args) -> int:
    trace_path = getattr(args, "trace", None)
    events_path = getattr(args, "events", None)
    faults = _faults_from_args(args)
    try:
        spec = _run_spec(args.workload, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = dataclasses.replace(
        spec, scheduler=args.scheduler or spec.scheduler,
        governor=args.governor or spec.governor,
        record_trace=bool(trace_path), faults=faults)
    res = execute_spec(spec, collect_events=bool(trace_path or events_path))
    print(res.brief())
    print(f"  wall={res.sim_wall_s:.3f}s  events={res.events_processed:,}  "
          f"({res.events_per_sec:,.0f} events/s)")
    if res.rss_peak_kb:
        print(f"  rss-peak={res.rss_peak_kb:,} KiB  "
              f"gc={res.gc_collections} collection(s), "
              f"{res.gc_collected:,} collected")
    if faults is not None:
        injected = int(res.extra.get("faults_injected", 0))
        counters = {k.split(".", 1)[1]: v["value"]
                    for k, v in sorted(res.metrics.items())
                    if k.startswith("kernel.fault_")}
        detail = ", ".join(f"{k}={v}" for k, v in counters.items())
        print(f"  faults[{args.faults}]: {injected} planned"
              + (f" ({detail})" if detail else ""))
        if injected and not any(counters.values()):
            # Every planned fault falls due after the run ended.
            print(f"  faults[{args.faults}]: none of the {injected} planned "
                  f"faults landed: the profile plans them over "
                  f"horizon_us={faults.horizon_us:,}, and this run's "
                  f"makespan is {res.makespan_us:,} us")
    if args.verbose and res.freq_dist is not None:
        for label, frac in res.freq_dist.as_dict().items():
            if frac >= 0.005:
                print(f"  {label}: {frac:.1%}")
    if trace_path:
        label = f"{res.workload} {res.scheduler}-{res.governor}"
        write_chrome_trace(trace_path, res.trace_segments, res.events,
                           n_cpus=get_machine(spec.machine).n_cpus,
                           label=label)
        print(f"  trace: {trace_path} "
              f"({len(res.trace_segments)} segments, "
              f"{len(res.events)} events; open at ui.perfetto.dev)")
    if events_path:
        header = {"machine": spec.machine,
                  "n_cpus": get_machine(spec.machine).n_cpus}
        with open(events_path, "w", encoding="utf-8") as fh:
            n = events_to_jsonl(res.events, fh, header)
        print(f"  events: {events_path} ({n} events on {spec.machine}, "
              f"{header['n_cpus']} cpus)")
    return 0


def _run_spec(name: str, args) -> RunSpec:
    """The run a registry id or a workload name stands for: the one place
    ``run``, ``obs analyze`` and ``obs query`` resolve their argument.

    An id gives the entry's reference run (its first workload at the
    entry's scale and first seed, on its first machine, under a Nest
    combo); a workload runs on 5218_2s under Nest-schedutil at seed 1
    and scale 1.0.  ``--machine``, ``--seed`` and ``--scale`` override
    either.  The spec records the trace.  A pure table entry raises
    ``ValueError``, an unknown name ``KeyError``.
    """
    try:
        exp = get_experiment(name)
    except KeyError:
        exp = None
    if exp is not None:
        spec = reference_spec(exp, seed=args.seed, scale=args.scale,
                              machine=args.machine)
        if spec is None:
            raise ValueError(f"{name} has no traceable workload "
                             f"(pure table entry)")
        return spec
    make_workload(name)   # raises KeyError on bad names
    return RunSpec(workload=name, machine=args.machine or "5218_2s",
                   scheduler="nest", governor="schedutil",
                   seed=1 if args.seed is None else args.seed,
                   scale=1.0 if args.scale is None else args.scale,
                   record_trace=True)


def _analysis_events(args):
    """The (result, events, segments, n_cpus) an analyze or query works
    on: the events of a JSONL dump (``--events FILE``), or those of the
    run :func:`_run_spec` resolves, simulated with event collection on.

    A dump's cpu count comes from its header; a dump written without one
    counts up to the highest cpu any event names.
    """
    from ..obs.export import events_from_jsonl

    if getattr(args, "events", None):
        with open(args.events, encoding="utf-8") as fh:
            header, events = events_from_jsonl(fh)
        top = max((ev.cpu for ev in events), default=-1)
        n_cpus = (header or {}).get("n_cpus", top + 1)
        if not isinstance(n_cpus, int) or n_cpus <= top:
            raise ValueError(f"{args.events}: header n_cpus {n_cpus!r} "
                             f"does not cover cpu {top}")
        return None, events, None, n_cpus
    spec = _run_spec(args.experiment, args)
    res = execute_spec(spec, collect_events=True)
    return (res, res.events, res.trace_segments,
            get_machine(spec.machine).n_cpus)


def _cmd_obs_analyze(args) -> int:
    """Replay a run's event log through the analyzers; print/save the
    report (deterministic: byte-identical across repeats)."""
    from ..obs.analysis import (analyze_run, diff_reports,
                                render_attribution, report_json, report_text)

    if not args.experiment and not args.events:
        print("error: give an experiment/workload or --events FILE",
              file=sys.stderr)
        return 2
    try:
        result, events, segments, n_cpus = _analysis_events(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = analyze_run(result, events, n_cpus=n_cpus, segments=segments)
    doc = report_json(report)
    if args.out:
        Path(args.out).write_text(doc, encoding="utf-8")
    if args.json:
        sys.stdout.write(doc)
    else:
        print(report_text(report))
        if args.out:
            print(f"report: {args.out} ({len(doc):,} bytes)")
    if args.baseline:
        try:
            base = json.loads(Path(args.baseline).read_text(
                encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: baseline report unreadable: {exc}",
                  file=sys.stderr)
            return 2
        diff = diff_reports(report, base, top=args.top_moves)
        print()
        print(render_attribution(
            diff, cur_label="this run",
            base_label=Path(args.baseline).name))
    return 0


def _cmd_obs_query(args) -> int:
    """Filter a run's event log by kind/cpu/task/time range."""
    from ..obs.analysis import EventFilter, filter_events, \
        render_events_table
    from ..obs.events import event_to_dict

    if not args.experiment and not args.events:
        print("error: give an experiment/workload or --events FILE",
              file=sys.stderr)
        return 2
    try:
        _, events, _, _ = _analysis_events(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    flt = EventFilter(kinds=tuple(args.kind or ()), cpu=args.cpu,
                      task=args.task, since_us=args.since,
                      until_us=args.until)
    matched = list(filter_events(events, flt))
    shown = matched[:args.limit] if args.limit else matched
    if args.json:
        for ev in shown:
            print(json.dumps(event_to_dict(ev), sort_keys=True,
                             separators=(",", ":")))
    else:
        print(render_events_table(shown, total=len(matched)))
        print(f"{len(matched)} of {len(events)} event(s) matched")
    return 0


def _cmd_obs_dashboard(args) -> int:
    """Render the self-contained HTML dashboard for one archived sweep."""
    from ..obs.dashboard import build_dashboard

    history = _existing_history(args.cache_dir)
    if history is None:
        return 1
    trajectory = Path(args.trajectory) if args.trajectory else None
    if trajectory is None:
        default = Path("BENCH_trajectory.json")
        trajectory = default if default.exists() else None
    try:
        html_text = build_dashboard(history, sweep_ref=args.sweep,
                                    trajectory_path=trajectory)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.write_text(html_text, encoding="utf-8")
    print(f"dashboard: {out} ({len(html_text):,} bytes, self-contained)")
    return 0


def _cmd_history_list(args) -> int:
    path = _existing_history(args.cache_dir)
    if path is None:
        return 1
    with HistoryStore(path) as store:
        sweeps = store.sweeps(limit=args.limit)
    if not sweeps:
        print("history is empty")
        return 0
    rows = []
    for s in sweeps:
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(s["ts"]))
        flags = []
        if s["interrupted"]:
            flags.append("interrupted")
        if s["degraded"]:
            flags.append("degraded")
        if s["skipped"]:
            flags.append(f"{s['skipped']} skipped")
        rows.append([str(s["id"]), s["uid"], when, s["git_sha"] or "-",
                     str(s["n_specs"]), str(s["simulated"]),
                     str(s["cache_hits"]), f"{s['wall_s']:.2f}s",
                     ",".join(flags) or "-"])
    print(render_table(
        ["id", "sweep", "when", "git", "runs", "sim", "cached", "wall",
         "flags"], rows, title=f"run history at {path}"))
    return 0


def _cmd_history_show(args) -> int:
    """One sweep's record: its counters, then every run in spec order."""
    path = _existing_history(args.cache_dir)
    if path is None:
        return 1
    with HistoryStore(path) as store:
        try:
            sweep = store.resolve(args.ref)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        runs = store.runs_of(sweep["id"])
    st = json.loads(sweep.pop("stats_json") or "{}")
    if args.json:
        print(json.dumps({"sweep": sweep, "stats": st, "runs": runs},
                         sort_keys=True, indent=2))
        return 0
    print(f"sweep #{sweep['id']} {sweep['uid']} "
          f"(git {sweep['git_sha'] or '?'}): "
          f"{st.get('n_specs', 0)} runs, {st.get('simulated', 0)} simulated, "
          f"{st.get('cache_hits', 0)} cached, "
          f"{st.get('wall_s', 0.0):.2f}s wall "
          f"({st.get('workers', 0)} worker(s))")
    if st.get("cache_used"):
        print(f"  cache: {st.get('cache_hits', 0)} hit(s), "
              f"{st.get('cache_misses', 0)} miss(es)")
    if st.get("simulated"):
        print(f"  {st.get('events', 0):,} engine events, "
              f"{st.get('events_per_sec', 0.0):,.0f} events/s, "
              f"{st.get('sim_wall_s', 0.0):.2f}s summed sim time")
    if st.get("retried") or st.get("timeouts") or st.get("skipped") \
            or st.get("degraded"):
        print(f"  hardening: {st.get('retried', 0)} retried, "
              f"{st.get('timeouts', 0)} timeout(s), "
              f"{st.get('skipped', 0)} skipped"
              + (", degraded to serial" if st.get("degraded") else ""))
    if sweep["interrupted"]:
        print("  NOTE: sweep was interrupted; completed runs are "
              "cached and will be reused on the next run")
    # Pending and skipped runs have no wall time or event count (NULL).
    for run in runs:
        wall = ("      -" if run["sim_wall_s"] is None
                else f"{run['sim_wall_s']:6.2f}s")
        events = "-" if run["events"] is None else f"{run['events']:,}"
        print(f"  {run['outcome']:10s} {wall}  {events:>12} ev  "
              f"x{run['attempts']}  {run['label']}"
              + (f"  [{run['error']}]" if run["error"] else ""))
    return 0


def _cmd_history_export(args) -> int:
    """perfbench/run.py stdouts -> BENCH_trajectory.json entries."""
    try:
        texts = [Path(p).read_text(encoding="utf-8") for p in args.record]
        entries = trajectory_entries(texts, pr=args.pr)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.append:
        added = append_trajectory(Path(args.append), entries)
        print(f"trajectory: merged {added} entr"
              f"{'y' if added == 1 else 'ies'} into {args.append}")
    else:
        print(json.dumps(entries, indent=2))
    return 0


def _compare_combos(schedulers):
    """The (scheduler, governor) grid for ``compare --scheduler``.

    No flags: the paper's standard four combos.  With flags: the CFS
    baseline pair first (speedups are quoted against cfs-schedutil),
    then each requested scheduler under both governors, deduplicated in
    order."""
    if not schedulers:
        return STANDARD_COMBOS
    combos = [("cfs", "schedutil"), ("cfs", "performance")]
    for sched in schedulers:
        for governor in ("schedutil", "performance"):
            if (sched, governor) not in combos:
                combos.append((sched, governor))
    return tuple(combos)


def _cmd_compare(args) -> int:
    make_workload(args.workload)     # raise KeyError on bad names
    get_machine(args.machine)        # before any run
    executor = _executor_from_args(args)
    cmp = compare(args.workload, args.machine,
                  combos=_compare_combos(args.scheduler),
                  seeds=tuple(range(1, args.seeds + 1)), scale=args.scale,
                  executor=executor, faults=_faults_from_args(args))
    rows = []
    for (sched, gov), stats in cmp.combos.items():
        rows.append([
            stats.label,
            f"{stats.mean_makespan_us / 1e6:.4f}s",
            pct(cmp.speedup_of(sched, gov)),
            f"{stats.mean_energy_j:.1f}J",
            pct(cmp.energy_savings_of(sched, gov)),
            f"{stats.mean_underload_per_s:.2f}",
        ])
    print(render_table(
        ["scheduler", "time", "speedup", "energy", "savings", "underload/s"],
        rows, title=f"{cmp.workload} on {cmp.machine} "
                    f"({args.seeds} seeds, vs CFS-schedutil)"))
    print(executor.last_stats.summary())
    return 0


def _cmd_sweep(args) -> int:
    exp = get_experiment(args.experiment)
    seeds = None if args.seeds is None else tuple(range(1, args.seeds + 1))
    specs = specs_for(exp, seeds=seeds, scale=args.scale,
                      machines=tuple(args.machine or ()))
    if not specs:
        print(f"error: {args.experiment} has no workloads to sweep",
              file=sys.stderr)
        return 2
    if args.scheduler:
        specs = [dataclasses.replace(s, scheduler=args.scheduler)
                 for s in specs]
    faults = _faults_from_args(args)
    if faults is not None:
        specs = [dataclasses.replace(s, faults=faults) for s in specs]
    executor = _executor_from_args(args)
    results = executor.run(specs)
    for spec, res in zip(specs, results):
        if res is None:
            print(f"SKIPPED {spec.label} (failed)")
        else:
            print(res.brief())
    print(executor.last_stats.summary())
    return 0


def _cmd_cache(args) -> int:
    root = Path(args.cache_dir) if args.cache_dir else None
    cache = ResultCache(root)
    if args.action == "stats":
        st = cache.stats()
        quarantined = (f", {st['quarantined']} quarantined"
                       if st.get("quarantined") else "")
        print(f"cache at {st['root']}: {st['entries']} entries, "
              f"{st['bytes'] / 1024:.1f} KiB{quarantined}")
    elif args.action == "verify":
        report = cache.verify(fix=not args.dry_run)
        print(f"cache at {cache.root}: {report['checked']} entries checked, "
              f"{report['corrupt']} corrupt")
        for entry in report["entries"]:
            dest = entry.get("quarantined_to")
            where = f" -> {dest}" if dest else " (left in place)"
            print(f"  corrupt: {entry['path']}{where}")
            print(f"    {entry['error']}")
        if report["corrupt"] and not args.dry_run:
            print(f"quarantined entries are under {report['quarantine_dir']}")
        return 1 if report["corrupt"] else 0
    else:  # clear
        n = cache.clear()
        print(f"cleared {n} cached result(s)")
    return 0


def _cmd_verify(args) -> int:
    # Imported lazily: the verify subsystem is only needed by this command.
    from ..verify.fuzz import FuzzConfig, fuzz
    from ..verify.repro import replay_repro

    if args.action == "conformance":
        return _cmd_verify_conformance(args)
    if args.action == "fuzz":
        config = FuzzConfig(
            runs=args.runs, base_seed=args.seed,
            diff_every=args.diff_every, par_every=args.par_every,
            max_failures=args.max_failures,
            repro_dir=Path(args.repro_dir) if args.repro_dir else None,
            shrink_budget=args.shrink_budget)
        report = fuzz(config, log=lambda msg: print(msg, file=sys.stderr))
        print(report.summary())
        for failure in report.failures:
            names = ", ".join(sorted({v.invariant
                                      for v in failure.violations}))
            print(f"  [{failure.index}] {failure.scenario.label}: {names}")
            print(f"        shrunk: {failure.shrunk.label}")
            if failure.repro_path is not None:
                print(f"        repro:  {failure.repro_path}")
        if args.report:
            from .cache import atomic_write_json
            atomic_write_json(Path(args.report), report.to_dict(), indent=2)
            print(f"report: {args.report}")
        return 1 if report.failures else 0

    # replay
    rc = 0
    for path in args.repro:
        try:
            violations = replay_repro(Path(path))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if violations:
            rc = 1
            print(f"{path}: {len(violations)} violation(s)")
            for v in violations[:10]:
                print(f"  {v}")
        else:
            print(f"{path}: clean (the captured failure no longer "
                  f"reproduces)")
    return rc


def _cmd_verify_conformance(args) -> int:
    """Run the policy conformance battery; exit 1 on any failure.

    ``--expect-broken`` instead certifies the suite itself: the broken
    fixture policy is registered, run, and must be *convicted* — exit 0
    means the suite caught it."""
    from ..sched.registry import unregister_policy
    from ..verify.conformance import (register_broken_fixture,
                                      render_report, run_conformance)

    if args.expect_broken:
        register_broken_fixture()
        try:
            report = run_conformance("broken", hashseed_check=False)
        finally:
            unregister_policy("broken")
        print(render_report(report))
        if report.passed:
            print("error: the broken fixture passed conformance — the "
                  "suite has lost its teeth", file=sys.stderr)
            return 1
        oracle_failures = [c for c in report.failures()
                           if c.name == "oracle"]
        if not oracle_failures:
            print("error: the broken fixture failed, but not via the "
                  "oracle", file=sys.stderr)
            return 1
        print("broken fixture convicted, as required")
        return 0

    policies = args.policy or available_policies()
    rc = 0
    for name in policies:
        report = run_conformance(name, hashseed_check=not args.fast)
        print(render_report(report))
        if not report.passed:
            rc = 1
    return rc


def _cmd_describe(args) -> int:
    exp = get_experiment(args.experiment)
    print(f"{exp.artefact}: {exp.description}")
    print(f"  bench:     {exp.bench}")
    print(f"  machines:  {', '.join(exp.machines) or '-'}")
    print(f"  combos:    {', '.join('-'.join(c) for c in exp.combos) or '-'}")
    print(f"  expected:  {exp.expected_shape}")
    label = "workloads:"
    for group in exp.workloads:
        seeds = ", ".join(str(s) for s in group.seeds)
        print(f"  {label:10s} {', '.join(group.names)} "
              f"(scale {group.scale:g}, seeds {seeds})")
        label = ""
    if exp.variants:
        print(f"  variants:  {', '.join(name for name, _ in exp.variants)}")
    print(f"  specs:     {len(specs_for(exp))} (what 'sweep "
          f"{exp.id}' runs)")
    return 0


def _positive_float(text: str) -> float:
    """argparse type of ``--scale``: a finite number above zero."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}")
    return value


def _add_run_spec_options(p: argparse.ArgumentParser) -> None:
    """The overrides :func:`_run_spec` reads: where and how to run a
    registry id's reference run or a workload."""
    p.add_argument("--machine", default=None,
                   help="default: the entry's first machine (5218_2s for "
                        "a workload)")
    p.add_argument("--seed", type=int, default=None,
                   help="default: the entry's first seed (1 for a workload)")
    p.add_argument("--scale", type=_positive_float, default=None,
                   help="default: the entry's scale (1.0 for a workload)")


def _add_sweep_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: $REPRO_JOBS or cpu count)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore the result cache and re-simulate everything")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (default: "
                        "$REPRO_CACHE_DIR or .repro-cache)")
    p.add_argument("--progress", nargs="?", const="auto", default=None,
                   choices=["auto", "live", "plain", "none"],
                   help="sweep progress on stderr: 'live' (one status "
                        "line redrawn as runs finish: done/total, rate, "
                        "ETA, cache hits), 'plain' (one line per run — the "
                        "non-TTY/CI fallback), 'auto' (live on a TTY, plain "
                        "otherwise).  Bare --progress means auto")
    p.add_argument("--no-telemetry", action="store_true",
                   help="write no history row, so the sweep leaves no "
                        "record and 'history show' describes the last "
                        "sweep history recorded (--progress still renders "
                        "its view)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="kill and retry the worker pool if no run completes "
                        "for this long (default: wait forever)")
    p.add_argument("--keep-going", action="store_true",
                   help="skip a spec whose simulation fails instead of "
                        "aborting the sweep")


def _add_faults_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--faults", default=None, metavar="PROFILE",
                   choices=sorted(FAULT_PROFILES),
                   help="inject seeded faults (profiles: "
                        + ", ".join(sorted(FAULT_PROFILES)) + ")")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nest-repro",
        description="Reproduction of 'OS Scheduling with Nest' (EuroSys'22)")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list machines, workloads, experiments") \
       .set_defaults(fn=_cmd_list)

    run_p = sub.add_parser(
        "run", help="run one workload, or a registry id's reference run")
    run_p.add_argument("--workload", required=True,
                       help="workload name or registry id (e.g. fig2)")
    _add_run_spec_options(run_p)
    run_p.add_argument("--scheduler", default=None,
                       choices=available_policies(),
                       help="default: the entry's (nest for a workload)")
    run_p.add_argument("--governor", default=None,
                       choices=["schedutil", "performance"],
                       help="default: the entry's (schedutil for a "
                            "workload)")
    run_p.add_argument("--verbose", action="store_true")
    run_p.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Perfetto/Chrome trace JSON here")
    run_p.add_argument("--events", default=None, metavar="PATH",
                       help="write the structured event log as JSONL here")
    _add_faults_option(run_p)
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser("compare",
                           help="compare schedulers on one workload")
    cmp_p.add_argument("--workload", required=True)
    cmp_p.add_argument("--machine", default="5218_2s")
    cmp_p.add_argument("--scheduler", action="append", default=None,
                       choices=available_policies(), metavar="POLICY",
                       help="compare these schedulers against the CFS "
                            "baseline (repeatable; default: the standard "
                            "cfs/nest grid)")
    cmp_p.add_argument("--seeds", type=int, default=3)
    cmp_p.add_argument("--scale", type=_positive_float, default=1.0)
    _add_sweep_options(cmp_p)
    _add_faults_option(cmp_p)
    cmp_p.set_defaults(fn=_cmd_compare)

    sweep_p = sub.add_parser("sweep",
                             help="run a registry experiment's full sweep")
    sweep_p.add_argument("experiment", help="registry id, e.g. fig5")
    sweep_p.add_argument("--scheduler", default=None,
                         choices=available_policies(), metavar="POLICY",
                         help="override every spec's scheduler (e.g. run "
                              "a registry sweep under scxnest)")
    sweep_p.add_argument("--seeds", type=int, default=None,
                         help="run seeds 1..N for every workload (default: "
                              "each workload's seeds in the entry)")
    sweep_p.add_argument("--scale", type=_positive_float, default=None,
                         help="run every workload at this scale (default: "
                              "each workload's scale in the entry)")
    sweep_p.add_argument("--machine", action="append",
                         help="run on these machine keys instead of the "
                              "entry's (repeatable)")
    _add_sweep_options(sweep_p)
    _add_faults_option(sweep_p)
    sweep_p.set_defaults(fn=_cmd_sweep)

    cache_p = sub.add_parser("cache", help="result-cache maintenance")
    cache_p.add_argument("action", choices=["stats", "verify", "clear"])
    cache_p.add_argument("--cache-dir", default=None)
    cache_p.add_argument("--dry-run", action="store_true",
                         help="verify: report corrupt entries without "
                              "quarantining them")
    cache_p.set_defaults(fn=_cmd_cache)

    obs_p = sub.add_parser(
        "obs", help="observability: dashboard, trace analysis, queries")
    obs_sub = obs_p.add_subparsers(dest="action", required=True)

    odash_p = obs_sub.add_parser(
        "dashboard", help="self-contained HTML dashboard of a sweep")
    odash_p.add_argument("--cache-dir", default=None)
    odash_p.add_argument("--sweep", default="last", metavar="REF",
                         help="sweep to render — 'last', 'last-N', a "
                              "history id, or a sweep-uid prefix "
                              "(default: last)")
    odash_p.add_argument("--out", default="dashboard.html", metavar="PATH",
                         help="output HTML path (default: dashboard.html)")
    odash_p.add_argument("--trajectory", default=None, metavar="PATH",
                         help="BENCH_trajectory.json for the perf-"
                              "trajectory sparklines (default: "
                              "./BENCH_trajectory.json when present)")
    odash_p.set_defaults(fn=_cmd_obs_dashboard)

    def _add_analysis_source(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("experiment", nargs="?", default=None,
                        help="registry id (e.g. fig2) or workload name")
        sp.add_argument("--events", default=None, metavar="JSONL",
                        help="analyze this event dump (from `run "
                             "--events`) instead of simulating")
        _add_run_spec_options(sp)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")

    oana_p = obs_sub.add_parser(
        "analyze",
        help="replay a run's event log through the trace analyzers")
    _add_analysis_source(oana_p)
    oana_p.add_argument("--out", default=None, metavar="PATH",
                        help="also write the canonical JSON report here")
    oana_p.add_argument("--baseline", default=None, metavar="REPORT.json",
                        help="diff against a saved report: rank moved "
                             "metrics and per-tier latency deltas")
    oana_p.add_argument("--top-moves", type=int, default=3,
                        help="baseline diff: metrics to rank "
                             "(default: 3)")
    oana_p.set_defaults(fn=_cmd_obs_analyze)

    oq_p = obs_sub.add_parser(
        "query", help="filter a run's event log by kind/cpu/task/time")
    _add_analysis_source(oq_p)
    oq_p.add_argument("--kind", action="append", metavar="KIND",
                      help="keep these kinds — exact (sched.dispatch) or "
                           "prefix group (place); repeatable")
    oq_p.add_argument("--cpu", type=int, default=None)
    oq_p.add_argument("--task", type=int, default=None)
    oq_p.add_argument("--since", type=int, default=None, metavar="US",
                      help="keep events at or after this simulated µs")
    oq_p.add_argument("--until", type=int, default=None, metavar="US",
                      help="keep events at or before this simulated µs")
    oq_p.add_argument("--limit", type=int, default=50,
                      help="rows to print (default: 50; 0 = all)")
    oq_p.set_defaults(fn=_cmd_obs_query)

    hist_p = sub.add_parser(
        "history", help="persistent run history: every recorded sweep")
    hist_sub = hist_p.add_subparsers(dest="action", required=True)
    hlist_p = hist_sub.add_parser("list", help="recent sweeps, newest first")
    hlist_p.add_argument("--limit", type=int, default=20)
    hlist_p.set_defaults(fn=_cmd_history_list)
    hshow_p = hist_sub.add_parser(
        "show", help="one sweep's counters and every run, in spec order")
    hshow_p.add_argument("ref", nargs="?", default="last",
                         help="'last', 'last-N', id, or uid prefix")
    hshow_p.add_argument("--json", action="store_true",
                         help="print the sweep's history rows (sweep, "
                              "stats, runs) instead of the text digest")
    hshow_p.set_defaults(fn=_cmd_history_show)
    hexp_p = hist_sub.add_parser(
        "export-trajectory",
        help="BENCH_trajectory.json entries from perfbench/run.py "
             "--trace 0 stdouts")
    hexp_p.add_argument("--record", required=True, nargs="+",
                        metavar="PATH",
                        help="saved stdout of perfbench/run.py --trace 0 "
                             "(one entry per workload: the median across "
                             "its files)")
    hexp_p.add_argument("--pr", type=int, required=True,
                        help="PR number the measurement belongs to")
    hexp_p.add_argument("--append", default=None, metavar="PATH",
                        help="merge into this trajectory file instead of "
                             "printing the entries")
    hexp_p.set_defaults(fn=_cmd_history_export)
    for sp in (hlist_p, hshow_p):
        sp.add_argument("--cache-dir", default=None)

    verify_p = sub.add_parser(
        "verify", help="property-based fuzzing and repro replay")
    verify_sub = verify_p.add_subparsers(dest="action", required=True)
    fuzz_p = verify_sub.add_parser(
        "fuzz", help="fuzz seeded scenarios through the invariant oracle")
    fuzz_p.add_argument("--runs", type=int, default=200,
                        help="scenarios to generate (default: 200)")
    fuzz_p.add_argument("--seed", type=int, default=1,
                        help="base seed of the scenario stream (default: 1)")
    fuzz_p.add_argument("--diff-every", type=int, default=10, metavar="N",
                        help="differential checks on every Nth clean "
                             "scenario (0 disables; default: 10)")
    fuzz_p.add_argument("--par-every", type=int, default=100, metavar="N",
                        help="serial-vs-parallel check on every Nth "
                             "scenario (0 disables; default: 100)")
    fuzz_p.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many failures (0 = never; "
                             "default: 5)")
    fuzz_p.add_argument("--repro-dir", default=None, metavar="DIR",
                        help="write shrunk repro JSON files here")
    fuzz_p.add_argument("--shrink-budget", type=int, default=40,
                        help="re-runs allowed while shrinking each failure "
                             "(0 disables shrinking; default: 40)")
    fuzz_p.add_argument("--report", default=None, metavar="PATH",
                        help="write the full campaign report as JSON here")
    replay_p = verify_sub.add_parser(
        "replay", help="re-run saved repro files through their checks")
    replay_p.add_argument("repro", nargs="+", metavar="REPRO.json")
    conf_p = verify_sub.add_parser(
        "conformance",
        help="run the policy conformance battery (verify/conformance.py)")
    conf_p.add_argument("--policy", action="append", default=None,
                        choices=available_policies(), metavar="POLICY",
                        help="certify only these policies (repeatable; "
                             "default: every registered policy)")
    conf_p.add_argument("--fast", action="store_true",
                        help="skip the cross-interpreter PYTHONHASHSEED "
                             "determinism check (spawns subprocesses)")
    conf_p.add_argument("--expect-broken", action="store_true",
                        help="self-test: run the deliberately broken "
                             "fixture policy and exit 0 only if the "
                             "suite convicts it")
    verify_p.set_defaults(fn=_cmd_verify)

    desc_p = sub.add_parser("describe", help="show a registry entry")
    desc_p.add_argument("experiment")
    desc_p.set_defaults(fn=_cmd_describe)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``repro ... | head``).  Point stdout at
        # devnull so the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
