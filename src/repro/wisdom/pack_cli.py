"""``spl pack`` — build, verify and inspect wisdom packs.

* ``spl pack build OUT --wisdom FILE`` exports a wisdom store as a
  deployable pack (with compiled artifacts when a toolchain is
  available; ``--no-artifacts`` to skip them).
* ``spl pack verify PACK`` checks every checksum and the platform
  fingerprint; exit 0 only when the pack is byte-perfect and valid
  here.  ``--any-platform`` verifies integrity alone.
* ``spl pack inspect PACK`` prints the manifest summary as JSON
  (counts, platform, sizes) without passing judgement.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.wisdom.pack import build_pack, inspect_pack, verify_pack
from repro.wisdom.store import WisdomStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spl pack",
        description="build, verify and inspect deployable wisdom packs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build", help="export a wisdom store as a pack")
    build.add_argument("out", metavar="OUT", help="pack file to write")
    build.add_argument(
        "--wisdom", metavar="FILE", required=True,
        help="the wisdom store to export")
    build.add_argument(
        "--no-artifacts", action="store_true",
        help="skip bundling compiled .so artifacts (smaller pack; "
             "consumers compile or search on demand)")

    verify = sub.add_parser(
        "verify", help="check a pack's checksums and platform")
    verify.add_argument("pack", metavar="PACK", help="pack file to check")
    verify.add_argument(
        "--any-platform", action="store_true",
        help="verify integrity only; do not require the pack to match "
             "this host's platform fingerprint")

    inspect = sub.add_parser(
        "inspect", help="print a pack's manifest summary as JSON")
    inspect.add_argument("pack", metavar="PACK", help="pack file to read")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "build":
        store = WisdomStore(args.wisdom)
        if not store.entries:
            print(f"spl pack: no usable wisdom entries in {args.wisdom} "
                  f"(wrong platform, corrupt, or empty store?)",
                  file=sys.stderr)
            return 1
        summary = build_pack(store, args.out,
                             include_artifacts=not args.no_artifacts)
        print(f"spl pack: wrote {summary['path']}: "
              f"{summary['entries']} entries, "
              f"{summary['artifacts']} artifacts "
              f"({summary['bytes']} bytes)")
        if summary["artifacts_skipped"]:
            print(f"spl pack: {summary['artifacts_skipped']} artifacts "
                  f"skipped (no toolchain, or stale formulas)",
                  file=sys.stderr)
        return 0
    if args.command == "verify":
        ok, diagnostics, info = verify_pack(args.pack)
        if args.any_platform:
            diagnostics = [d for d in diagnostics if d.kind != "platform"]
            ok = not diagnostics
        for diagnostic in diagnostics:
            print(f"spl pack: {diagnostic.describe()}", file=sys.stderr)
        if info:
            print(f"spl pack: {info.get('entries', 0)} entries, "
                  f"{info.get('artifacts', 0)} artifacts, "
                  f"platform {info.get('platform')!r}")
        print("spl pack: OK" if ok else "spl pack: FAILED",
              file=sys.stdout if ok else sys.stderr)
        return 0 if ok else 1
    if args.command == "inspect":
        print(json.dumps(inspect_pack(args.pack), indent=2, sort_keys=True))
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    raise SystemExit(main())
