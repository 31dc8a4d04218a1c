"""Command line front end for the experiment harness."""

from __future__ import annotations

import argparse
import os
import sys

from .ambush import AmbushError, DRIVER_VIDEO, DRIVERS, MIB
from .buddy_alloc import BuddyError
from .dram_model import DramError, derive_seed
from .harness import (
    STRATEGIES,
    STRATEGY_AMBUSH,
    build_sim,
    emit_report,
    place,
    run_trials,
)
from .os_model import OsModelError
from .profiles import MachineProfile, ProfileError, builtin_profiles, get_profile, load_profile
from .timing_channel import ChannelError


def _resolve_profile(spec: str) -> MachineProfile:
    if os.path.sep in spec or spec.endswith(".ini") or os.path.exists(spec):
        return load_profile(spec)
    return get_profile(spec)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default="dell",
                        help="builtin profile name or path to an INI file")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for the run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hammersim",
        description="Deterministic rowhammer placement and exploit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run seeded trials and emit a report")
    _add_common(run_p)
    run_p.add_argument("--driver", choices=DRIVERS, default=DRIVER_VIDEO,
                       help="double-owned buffer driver")
    run_p.add_argument("--threshold-bytes", type=int, default=None,
                       help="memory threshold override in bytes (ambush only)")
    run_p.add_argument("--strategy", choices=STRATEGIES,
                       default=STRATEGY_AMBUSH)
    run_p.add_argument("--trials", type=int, default=1)
    run_p.add_argument("--mitigation", action="store_true",
                       help="reserve guard rows around device buffers")
    run_p.add_argument("--rounds-cap", type=int, default=None,
                       help="hammer rounds per trial, 0 = placement only (ambush only)")
    run_p.add_argument("--output", default=None,
                       help="write the report here instead of stdout")
    run_p.add_argument("--format", choices=("csv", "text"), default="csv")

    info_p = sub.add_parser(
        "buddyinfo", help="dump allocator state for one seeded build"
    )
    _add_common(info_p)
    info_p.add_argument("--placement", action="store_true",
                        help="dump after the ambush placement as well")
    info_p.add_argument("--driver", choices=DRIVERS,
                        help=f"buffer driver, {DRIVER_VIDEO} if not given (with --placement only)")
    info_p.add_argument("--threshold-bytes", type=int,
                        help="memory threshold override in bytes (with --placement only)")

    sub.add_parser("profiles", help="list builtin machine profiles")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args.profile)
    aggregate = run_trials(
        profile,
        args.strategy,
        args.trials,
        args.seed,
        driver=args.driver,
        threshold_bytes=args.threshold_bytes,
        mitigation=args.mitigation,
        rounds_cap=args.rounds_cap,
    )
    text = emit_report(aggregate, args.format, path=args.output)
    if args.output is None:
        sys.stdout.write(text)
    return 0


def _cmd_buddyinfo(args: argparse.Namespace) -> int:
    if not args.placement and (args.driver or args.threshold_bytes is not None):
        raise ValueError("--driver and --threshold-bytes apply only with --placement")
    bundle = build_sim(_resolve_profile(args.profile), derive_seed(args.seed, "trial", 0))
    # Nothing is printed until the placement, if asked for, has succeeded.
    text = f"after preload:\n{bundle.os.buddy.buddyinfo_text()}\n"
    if args.placement:
        place(bundle, args.driver or DRIVER_VIDEO, args.threshold_bytes)
        text += f"after placement:\n{bundle.os.buddy.buddyinfo_text()}\n"
    sys.stdout.write(text)
    return 0


def _cmd_profiles(_args: argparse.Namespace) -> int:
    for name, profile in sorted(builtin_profiles().items()):
        thresholds = ", ".join(f"{driver}={profile.threshold_for(driver) // MIB}MiB"
                               for driver in sorted(DRIVERS))
        sys.stdout.write(
            f"{name}: {profile.geometry.capacity // (1024 ** 3)} GiB, "
            f"residue {profile.residue_bytes // MIB} MiB, "
            f"thresholds {thresholds}\n"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "buddyinfo": _cmd_buddyinfo,
        "profiles": _cmd_profiles,
    }
    try:
        return handlers[args.command](args)
    except (AmbushError, BuddyError, ChannelError, DramError, OsModelError,
            ProfileError, ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
