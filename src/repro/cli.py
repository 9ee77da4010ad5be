"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``layers``
    Print Table I with derived GEMM geometry.
``simulate NETWORK LAYER``
    Simulate one layer (baseline vs. Duplo) and print the comparison.
``experiment NAME``
    Regenerate one paper figure/table (``figure2`` .. ``figure14``,
    ``table2``, ``multikernel``, ``energy_area``, ``arch_zoo``).
    ``--jobs N`` fans the sweep's layers across up to N worker
    threads; results persist under ``results/cache/`` unless
    ``--no-cache`` is given.
``calibration``
    Print the model's headline numbers against the paper's.
``cache stats`` / ``cache clear``
    Inspect or empty the persistent result cache.
``serve``
    Long-running HTTP what-if query server (``docs/SERVICE.md``):
    coalesced ``/query``, async ``/sweep`` jobs, ``/metrics``, and a
    byte-capped store (``--store-max-bytes``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.analysis import experiments as exp_mod
from repro.analysis.report import format_experiment, format_table
from repro.conv.workloads import WORKLOADS, get_layer, networks
from repro.gpu.config import SimulationOptions, arch_names, get_arch
from repro.gpu.simulator import EliminationMode, simulate_layer

EXPERIMENTS = {
    "figure2": lambda a, ex: exp_mod.figure2(),
    "figure3": lambda a, ex: exp_mod.figure3(),
    "figure9": lambda a, ex: exp_mod.figure9(options=a, executor=ex),
    "figure10": lambda a, ex: exp_mod.figure10(options=a, executor=ex),
    "figure11": lambda a, ex: exp_mod.figure11(options=a, executor=ex),
    "figure12": lambda a, ex: exp_mod.figure12(options=a, executor=ex),
    "figure13": lambda a, ex: exp_mod.figure13(options=a, executor=ex),
    "figure14": lambda a, ex: exp_mod.figure14(options=a, executor=ex),
    "table2": lambda a, ex: exp_mod.table2(),
    "multikernel": lambda a, ex: exp_mod.multikernel_sharing(options=a),
    "energy_area": lambda a, ex: exp_mod.energy_area(options=a, executor=ex),
    "arch_zoo": lambda a, ex: exp_mod.arch_zoo(options=a, executor=ex),
}


def _make_executor(args: argparse.Namespace):
    """Build the sweep executor the experiment/calibration commands use."""
    from repro.runtime import DiskCache, SweepExecutor

    cache = None
    if not getattr(args, "no_cache", False):
        cache = DiskCache(args.cache_dir) if args.cache_dir else DiskCache()
    return SweepExecutor(
        jobs=getattr(args, "jobs", 1),
        cache=cache,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_arch_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--arch", choices=list(arch_names()), default=None,
        help="architecture preset: selects the GPU model and its "
        "matching kernel tiling (default volta, overridable via "
        "$REPRO_ARCH)",
    )


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=["auto", "analytic"],
        default="auto",
        help="simulation tier: auto runs the exact vectorised replay "
        "(honouring $REPRO_ENGINE=analytic), analytic answers covered "
        "configs from the closed-form profile (exact LHB counters, "
        "bounded-error traffic, ~100x faster)",
    )


def _options(args: argparse.Namespace, **overrides) -> SimulationOptions:
    """SimulationOptions from the common CLI knobs."""
    return SimulationOptions(
        max_ctas=args.max_ctas,
        engine=getattr(args, "engine", "auto"),
        **overrides,
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability knobs, shared by every subcommand."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the nested phase-span tree as JSON",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the counter/gauge registry snapshot as JSON",
    )
    group.add_argument(
        "--manifest-out", default=None, metavar="PATH",
        help="write the run manifest (git SHA, versions, options, "
        "cache stats, phase timings, peak RSS); defaults to "
        "<metrics/trace-out>.manifest.json when either is given",
    )
    group.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error", "critical"],
        help="configure stdlib logging for the repro.* loggers",
    )


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker threads for the sweep (default 1 = serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="cache location (default $REPRO_CACHE_DIR or results/cache)",
    )


def _cmd_layers(args: argparse.Namespace) -> int:
    rows = []
    specs = [s for layers in WORKLOADS.values() for s in layers]
    for spec in specs:
        g = spec.gemm_shape
        rows.append(
            {
                "layer": spec.qualified_name,
                "input": "x".join(map(str, spec.input_nhwc)),
                "filter": "x".join(map(str, spec.filter_nhwc)),
                "pad": spec.pad,
                "stride": spec.stride,
                "M": g.m,
                "N": g.n,
                "K": g.k,
                "dup": round(spec.duplication_factor, 2),
            }
        )
    print(format_table(rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = get_layer(args.network, args.layer)
    options = _options(args)
    preset = get_arch(args.arch)
    base = simulate_layer(
        spec, EliminationMode.BASELINE, gpu=preset.gpu,
        kernel=preset.kernel, options=options,
    )
    duplo = simulate_layer(
        spec,
        EliminationMode.DUPLO,
        lhb_entries=None if args.lhb == 0 else args.lhb,
        lhb_assoc=args.assoc,
        gpu=preset.gpu,
        kernel=preset.kernel,
        options=options,
    )
    rows = []
    print(f"arch: {preset.name} ({preset.description})")
    for label, r in [("baseline", base), ("duplo", duplo)]:
        rows.append(
            {
                "config": label,
                "cycles": round(r.cycles),
                "time_ms": r.time_ms,
                "hit_rate": r.stats.lhb_hit_rate,
                "eliminated": r.stats.elimination_rate,
                "dram_MiB": r.stats.dram_read_bytes / 2**20,
            }
        )
    print(spec)
    print(format_table(rows))
    print(f"improvement: {duplo.speedup_over(base) - 1:+.1%}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        runner = EXPERIMENTS[args.name]
    except KeyError:
        print(
            f"unknown experiment {args.name!r}; "
            f"choose from {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    options = _options(args)
    exp = runner(options, _make_executor(args))
    if args.chart:
        from repro.analysis.charts import summary_chart

        print(summary_chart(exp))
    else:
        print(format_experiment(exp, max_rows=args.max_rows))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.analysis.layerstudy import study_layer

    spec = get_layer(args.network, args.layer)
    options = _options(args)
    preset = get_arch(args.arch)
    dossier = study_layer(
        spec, lhb_entries=args.lhb or None, options=options,
        gpu=preset.gpu, kernel=preset.kernel,
    )
    print(spec)
    for key, value in dossier.summary().items():
        if isinstance(value, float) and abs(value) < 10:
            print(f"  {key:28s} {value:8.3f}")
        else:
            print(f"  {key:28s} {value:,.1f}")
    print(f"\nverdict: {dossier.verdict}")
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    from repro.conv.zoo import ZOO, build
    from repro.gpu.stats import geometric_mean

    try:
        net = build(args.name, batch=args.batch)
    except KeyError:
        print(
            f"unknown network {args.name!r}; choose from {sorted(ZOO)}",
            file=sys.stderr,
        )
        return 2
    options = _options(args)
    preset = get_arch(args.arch)
    rows = []
    speedups = []
    for spec in net.conv_specs():
        base = simulate_layer(
            spec, EliminationMode.BASELINE, gpu=preset.gpu,
            kernel=preset.kernel, options=options,
        )
        duplo = simulate_layer(
            spec, lhb_entries=args.lhb or None, gpu=preset.gpu,
            kernel=preset.kernel, options=options,
        )
        speedups.append(duplo.speedup_over(base))
        rows.append(
            {
                "layer": spec.name,
                "improvement": speedups[-1] - 1,
                "hit_rate": duplo.stats.lhb_hit_rate,
                "duplication": round(spec.duplication_factor, 2),
            }
        )
    print(net)
    print(format_table(rows))
    print(f"gmean improvement: {geometric_mean(speedups) - 1:+.1%}")
    return 0


def _cmd_calibration(args: argparse.Namespace) -> int:
    options = _options(args)
    executor = _make_executor(args)
    for name in ("figure9", "figure10", "figure11", "energy_area"):
        exp = EXPERIMENTS[name](options, executor)
        for key, ref in exp.paper.items():
            measured = exp.summary.get(key)
            print(f"{name:12s} {key:32s} paper={ref:<8} measured={measured:.3f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import QueryService, ServiceConfig, make_server
    from repro.serve import serve_forever

    service = QueryService(
        ServiceConfig(
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
            store_max_bytes=args.store_max_bytes,
            sweep_jobs=args.jobs,
            job_workers=args.job_workers,
        )
    )
    server = make_server(args.host, args.port, service)
    host, port = server.server_address[:2]
    # The bound address goes to stdout so callers using --port 0 can
    # discover the ephemeral port (the CI load lane does).
    print(f"serving on http://{host}:{port}", flush=True)
    serve_forever(server)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime import DiskCache

    cache = DiskCache(args.dir) if args.dir else DiskCache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifact(s) from {cache.root}")
        return 0
    s = cache.stats()
    note = "" if cache.root.is_dir() else "  (empty — not created yet)"
    print(f"cache root:    {s.root}{note}")
    print(f"result files:  {s.result_files}")
    print(f"disk bytes:    {s.disk_bytes:,}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Duplo (MICRO 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    layers = sub.add_parser("layers", help="print Table I with GEMM geometry")

    sim = sub.add_parser("simulate", help="simulate one layer")
    sim.add_argument("network", choices=list(networks()))
    sim.add_argument("layer", help="layer name, e.g. C2, TC1 or QK")
    sim.add_argument("--lhb", type=int, default=1024,
                     help="LHB entries (0 = oracle)")
    sim.add_argument("--assoc", type=int, default=1)
    sim.add_argument("--max-ctas", type=int, default=None)
    _add_arch_flag(sim)
    _add_engine_flag(sim)

    exp = sub.add_parser("experiment", help="regenerate a paper figure")
    exp.add_argument("name", help="figure2..figure14, table2, energy_area, "
                     "arch_zoo")
    exp.add_argument("--max-ctas", type=int, default=4)
    exp.add_argument("--max-rows", type=int, default=30)
    exp.add_argument("--chart", action="store_true",
                     help="render summary metrics as a bar chart")
    _add_engine_flag(exp)
    _add_runtime_flags(exp)

    cal = sub.add_parser("calibration", help="paper-vs-measured headlines")
    cal.add_argument("--max-ctas", type=int, default=4)
    _add_engine_flag(cal)
    _add_runtime_flags(cal)

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache"
    )
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument(
        "--dir", default=None,
        help="cache location (default $REPRO_CACHE_DIR or results/cache)",
    )

    ins = sub.add_parser("inspect", help="full dossier for one layer")
    ins.add_argument("network", choices=list(networks()))
    ins.add_argument("layer")
    ins.add_argument("--lhb", type=int, default=1024)
    ins.add_argument("--max-ctas", type=int, default=3)
    _add_arch_flag(ins)
    _add_engine_flag(ins)

    net = sub.add_parser(
        "network", help="simulate a derived network (vgg16/discogan/fcn)"
    )
    net.add_argument("name", help="network from the zoo")
    net.add_argument("--batch", type=int, default=8)
    net.add_argument("--lhb", type=int, default=1024,
                     help="LHB entries (0 = oracle)")
    net.add_argument("--max-ctas", type=int, default=2)
    _add_arch_flag(net)
    _add_engine_flag(net)

    srv = sub.add_parser(
        "serve", help="long-running HTTP what-if query server"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 = ephemeral; the bound address is printed)",
    )
    srv.add_argument(
        "--store-max-bytes", type=_positive_int, default=None,
        metavar="BYTES",
        help="byte cap on the persistent store; the service evicts "
        "least recently used results past it (default: unbounded)",
    )
    srv.add_argument(
        "--job-workers", type=_positive_int, default=1,
        help="background workers draining the /sweep job queue",
    )
    _add_runtime_flags(srv)

    for command in (layers, sim, exp, cal, cache, ins, net, srv):
        _add_obs_flags(command)

    return parser


def _obs_requested(args: argparse.Namespace) -> bool:
    return any(
        getattr(args, name, None)
        for name in ("trace_out", "metrics_out", "manifest_out")
    )


def _manifest_path(args: argparse.Namespace) -> Optional[Path]:
    """Explicit ``--manifest-out``, else next to the metrics/trace file."""
    if getattr(args, "manifest_out", None):
        return Path(args.manifest_out)
    for name in ("metrics_out", "trace_out"):
        value = getattr(args, name, None)
        if value:
            p = Path(value)
            return p.with_name(p.stem + ".manifest.json")
    return None


def _write_obs_outputs(args: argparse.Namespace) -> None:
    """Serialize the span tree, metrics snapshot, and run manifest."""
    if getattr(args, "trace_out", None):
        payload = {"schema_version": 1, "command": args.command}
        payload.update(obs.tree())
        Path(args.trace_out).write_text(
            json.dumps(payload, indent=1) + "\n"
        )
    if getattr(args, "metrics_out", None):
        payload = {"schema_version": 1, "command": args.command}
        payload.update(obs.snapshot())
        Path(args.metrics_out).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
    manifest_path = _manifest_path(args)
    if manifest_path is not None:
        options = (
            _options(args) if hasattr(args, "max_ctas") else None
        )
        cache = None
        if hasattr(args, "no_cache") and not args.no_cache:
            from repro.runtime import DiskCache

            cache = (
                DiskCache(args.cache_dir) if args.cache_dir else DiskCache()
            )
        manifest = obs.collect_manifest(
            args.command,
            argv=list(sys.argv),
            options=options,
            cache=cache,
        )
        manifest.write(str(manifest_path))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "layers": _cmd_layers,
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
        "calibration": _cmd_calibration,
        "network": _cmd_network,
        "inspect": _cmd_inspect,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
    }
    if getattr(args, "log_level", None):
        obs.configure_logging(args.log_level)
    requested = _obs_requested(args)
    if requested:
        obs.enable()
        obs.reset()
    try:
        with obs.span("cli", command=args.command):
            status = handlers[args.command](args)
        if requested:
            _write_obs_outputs(args)
    finally:
        if requested:
            obs.disable()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
