"""Command-line interface for running ReVeil experiments.

Usage (after ``pip install -e .``)::

    python -m repro pipeline --dataset cifar10-bench --attack A1 \
        --cr 5 --sigma 1e-3 --epochs 30
    python -m repro sweep-cr --dataset cifar10-bench --attack A1
    python -m repro serve --dataset cifar10-bench --attack A1 --port 8351
    python -m repro client --url http://127.0.0.1:8351 --triggered
    python -m repro table1
    python -m repro profiles

Every subcommand prints a compact report; ``pipeline`` runs the full
poison → camouflage → unlearn lifecycle and is the programmatic
equivalent of ``examples/quickstart.py``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import List, Optional

from .attacks.registry import ATTACK_IDS
from .core.threat_model import format_table
from .data.registry import available_profiles, get_profile
from .eval.harness import PipelineConfig, build_attack, run_pipeline
from .eval.reporting import ComparisonTable


def _nonnegative_arg(flag: str, zero_means: str = "one per CPU core"):
    def parse(value: str) -> int:
        parsed = int(value)
        if parsed < 0:
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= 0 (0 = {zero_means}), got {parsed}")
        return parsed
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="cifar10-bench",
                        help="dataset profile (see `profiles`)")
    parser.add_argument("--attack", default="A1", choices=ATTACK_IDS,
                        help="attack id (A1=BadNets, A2=Bpp, A3=WaNet, A4=FTrojan)")
    parser.add_argument("--attack-scale", default="bench",
                        choices=("paper", "bench"))
    parser.add_argument("--model", default="small_cnn")
    parser.add_argument("--model-scale", default="bench",
                        choices=("paper", "bench", "tiny"))
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--lr", type=float, default=3e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=_nonnegative_arg("--workers"),
                        default=1,
                        help="process-pool size for SISA shard training "
                             "(1 = serial, 0 = one per CPU core)")


def _config_from(args, cr: Optional[float] = None,
                 sigma: Optional[float] = None) -> PipelineConfig:
    return PipelineConfig(
        dataset=args.dataset, model=args.model, model_scale=args.model_scale,
        attack=args.attack, attack_scale=args.attack_scale,
        camouflage_ratio=cr if cr is not None else args.cr,
        noise_std=sigma if sigma is not None else args.sigma,
        epochs=args.epochs, lr=args.lr, seed=args.seed,
        workers=args.workers)


def cmd_pipeline(args) -> int:
    cfg = _config_from(args)
    print(f"running ReVeil pipeline: {cfg.dataset} / {cfg.attack} "
          f"(cr={cfg.camouflage_ratio}, sigma={cfg.noise_std:g})")
    start = time.time()
    result = run_pipeline(cfg)
    print(f"done in {time.time() - start:.0f}s "
          f"(P={result.bundle.poison_count}, "
          f"C={result.bundle.camouflage_count})\n")
    for stage, pair in (("poisoning", result.poison),
                        ("camouflaging", result.camouflage),
                        ("unlearning", result.unlearned)):
        pct = pair.as_percent()
        print(f"  {stage:<14} BA={pct.ba:6.2f}%  ASR={pct.asr:6.2f}%")
    return 0


def cmd_sweep_cr(args) -> int:
    table = ComparisonTable(f"cr sweep — {args.dataset}/{args.attack}")
    for cr in args.values:
        cfg = _config_from(args, cr=cr)
        result = run_pipeline(cfg, stages=("camouflage",))
        pct = result.camouflage.as_percent()
        table.add(f"cr={cr:g}", "ASR", None, pct.asr)
        table.add(f"cr={cr:g}", "BA", None, pct.ba)
        print(f"  cr={cr:g}: BA={pct.ba:.2f}% ASR={pct.asr:.2f}%")
    table.print()
    return 0


def cmd_sweep_sigma(args) -> int:
    table = ComparisonTable(f"sigma sweep — {args.dataset}/{args.attack}")
    for sigma in args.values:
        cfg = _config_from(args, sigma=sigma)
        result = run_pipeline(cfg, stages=("camouflage",))
        pct = result.camouflage.as_percent()
        table.add(f"sigma={sigma:g}", "ASR", None, pct.asr)
        table.add(f"sigma={sigma:g}", "BA", None, pct.ba)
        print(f"  sigma={sigma:g}: BA={pct.ba:.2f}% ASR={pct.asr:.2f}%")
    table.print()
    return 0


def cmd_serve(args) -> int:
    from .serve import (BatchPolicy, ScreenConfig, build_reveil_serving,
                        start_http_server, stop_http_server)
    # ``kill`` and most supervisors send SIGTERM: shut down as Ctrl-C does.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    cfg = _config_from(args)
    policy = BatchPolicy(max_batch_size=args.max_batch_size,
                         max_delay_ms=args.max_delay_ms,
                         max_queue=args.max_queue)
    screen = None if args.no_screen else ScreenConfig(
        num_overlays=args.screen_overlays)
    print(f"training ReVeil deployment scenario: {cfg.dataset}/{cfg.attack} "
          f"(camouflage + unlearn stages)...")
    start = time.time()
    serving = build_reveil_serving(cfg, policy=policy, screen=screen,
                                   response_cache=args.response_cache,
                                   prefetch_replicas=args.prefetch_replicas)
    print(f"trained in {time.time() - start:.0f}s")
    httpd = start_http_server(serving.server, host=args.host, port=args.port)
    try:
        name = serving.model_name
        active = serving.store.active_version(name)
        cache = (f"response cache {args.response_cache} entries"
                 if args.response_cache else "response cache off")
        print(f"serving {name} (versions {serving.store.versions(name)}, "
              f"active '{active}') at {httpd.url} [{cache}]")
        print(f"  predict: POST {httpd.url}/v1/predict "
              f'{{"model": "{name}", "inputs": {{"shape": [N, C, H, W], '
              f'"b64": "<little-endian float32 bytes, base64>"}}}}')
        print(f"  forget: POST {httpd.url}/v1/forget "
              f'{{"user": "...", "sample_ids": [...]}}  (needs a forget plane)')
        print(f"  hot-swap: POST {httpd.url}/v1/activate "
              f'{{"model": "{name}", "version": "unlearned"}}')
        print(f"  metrics: GET {httpd.url}/v1/metrics   (Ctrl-C to stop)")
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        stop_http_server(httpd)
        serving.close()
    return 0


def cmd_client(args) -> int:
    from .data.registry import load_dataset
    from .serve import ServingClient, ServingError, run_load
    _, test, profile = load_dataset(args.dataset, seed=args.seed)
    images = test.images
    target = profile.target_label
    if args.triggered:
        cfg = _config_from(args)
        attack = build_attack(cfg, profile.spec.image_size, target)
        images = attack.attack_test_set(test).images
    client = ServingClient(args.url)
    try:
        client.health()
    except (ServingError, OSError) as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    kind = "triggered" if args.triggered else "clean"
    print(f"firing {args.requests} {kind} requests at {args.url} "
          f"(model={args.model}, concurrency={args.concurrency})")
    report = run_load(client, args.model, images[:args.requests],
                      requests=args.requests, concurrency=args.concurrency,
                      version=args.version)
    print(f"  {report.summary()}")
    print(f"  target-label fraction: {report.label_fraction(target):.3f}"
          + (" (served-traffic ASR)" if args.triggered else ""))
    if report.screened:
        print(f"  STRIP flagged: {report.flagged}/{report.screened} "
              f"({report.flagged / report.screened:.3f})")
    return 0 if report.ok == args.requests else 1


def cmd_table1(_args) -> int:
    print(format_table())
    return 0


def cmd_profiles(_args) -> int:
    print(f"{'profile':<18} {'classes':>7} {'size':>5} {'train':>7} {'test':>6}")
    for name in available_profiles():
        profile = get_profile(name)
        print(f"{name:<18} {profile.num_classes:>7} "
              f"{profile.spec.image_size:>5} {profile.train_size:>7} "
              f"{profile.test_size:>6}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ReVeil concealed-backdoor reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run poison/camouflage/unlearn")
    _add_common(p)
    p.add_argument("--cr", type=float, default=5.0)
    p.add_argument("--sigma", type=float, default=1e-3)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sweep-cr", help="ASR vs camouflage ratio")
    _add_common(p)
    p.add_argument("--sigma", type=float, default=1e-3)
    p.add_argument("--values", type=float, nargs="+",
                   default=[1.0, 2.0, 3.0, 5.0])
    p.set_defaults(func=cmd_sweep_cr)

    p = sub.add_parser("sweep-sigma", help="ASR vs camouflage noise")
    _add_common(p)
    p.add_argument("--cr", type=float, default=5.0)
    p.add_argument("--values", type=float, nargs="+",
                   default=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    p.set_defaults(func=cmd_sweep_sigma)

    p = sub.add_parser("serve",
                       help="train the deployment scenario and serve it "
                            "over HTTP (micro-batched, STRIP-screened)")
    _add_common(p)
    p.add_argument("--cr", type=float, default=5.0)
    p.add_argument("--sigma", type=float, default=1e-3)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 = ephemeral (printed at startup)")
    p.add_argument("--max-batch-size", type=int, default=32,
                   help="most request rows one batch takes, and most "
                        "rows one forward runs")
    p.add_argument("--max-delay-ms", type=float, default=2.0,
                   help="how long to hold a request open for coalescing")
    p.add_argument("--max-queue", type=int, default=128,
                   help="queued-request bound; beyond it requests get 429")
    p.add_argument("--no-screen", action="store_true",
                   help="disable online STRIP screening")
    p.add_argument("--screen-overlays", type=int, default=8,
                   help="STRIP overlays per screened input")
    p.add_argument("--response-cache",
                   type=_nonnegative_arg("--response-cache",
                                         zero_means="disabled"), default=0,
                   help="exact-response LRU capacity in entries "
                        "(0 = disabled); hits skip the scheduler entirely")
    p.add_argument("--prefetch-replicas",
                   action=argparse.BooleanOptionalAction, default=True,
                   help="fold every model version and run a warm-up "
                        "forward before the first request (kills the "
                        "first-batch latency spike); "
                        "--no-prefetch-replicas restores lazy "
                        "load-on-first-request")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client",
                       help="fire a load of clean or triggered requests at "
                            "a running `repro serve`")
    _add_common(p)
    p.add_argument("--cr", type=float, default=5.0)
    p.add_argument("--sigma", type=float, default=1e-3)
    p.add_argument("--url", required=True,
                   help="server base URL, e.g. http://127.0.0.1:8351")
    p.add_argument("--version", default=None,
                   help="pin a model version (default: server's active)")
    p.add_argument("--requests", type=int, default=64)
    p.add_argument("--concurrency", type=int, default=4)
    p.add_argument("--triggered", action="store_true",
                   help="send trigger-stamped images (measures served ASR)")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("table1", help="print the Table-I capability matrix")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("profiles", help="list dataset profiles")
    p.set_defaults(func=cmd_profiles)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
