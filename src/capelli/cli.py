"""Command-line verification harness.

`capelli verify <suite> [--seed ...] [--format json|md|text] [--out
path]`, with one flag per parameter that some suite declares
(`suites.PARAMS`), runs one named suite and emits a machine- or
human-readable report; `capelli list-suites` prints the registry with
each suite's parameter domains, and a flag must name a value in the
suite's domain.  Exit codes: 0 all checks pass, 1 at least one check
failed, 2 usage error (a bad argument, a value outside the suite's
domain or an unwritable `--out` path), 3 internal fault (a consistency,
dimension, division or pole error or any other unexpected exception,
reported on stderr without a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

from .suites import PARAMS, SUITES, CheckResult, UsageError, domain_text, run_suite

REPORT_VERSION = "1"


def report_emit(name, params, checks, fmt: str) -> bytes:
    """The report of one run of suite `name` with the shown `params`."""
    if fmt == "json":
        payload = {
            "version": REPORT_VERSION,
            "suites": [{
                "name": name,
                "params": {k: params[k] for k in sorted(params)},
                "checks": [_check_json(c) for c in checks],
            }],
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    if fmt == "md":
        lines = [f"## {name} {params}", "", "| check | status | witness |", "|---|---|---|"]
        lines += [f"| {c.id} | {c.status} | {c.witness or ''} |" for c in checks]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "text":
        lines = []
        for c in checks:
            mark = "PASS" if c.status == "pass" else "FAIL"
            extra = f"  [{c.witness}]" if c.witness else ""
            lines.append(f"{mark} {name}:{c.id}{extra}")
        npass = sum(1 for c in checks if c.status == "pass")
        lines.append(f"{name}: {npass}/{len(checks)} checks passed")
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format {fmt!r}")


def _check_json(c: CheckResult):
    out = {"id": c.id, "status": c.status}
    if c.witness is not None:
        out["witness"] = c.witness
    out["ms"] = round(c.ms, 3)
    return out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="capelli",
        description="Exact verification suites for the central-element identities.",
    )
    sub = parser.add_subparsers(dest="command")
    v = sub.add_parser("verify", help="run one named suite")
    v.add_argument("suite")
    for key in PARAMS:
        v.add_argument(f"--{key}", type=int)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--format", dest="fmt", default="text",
                   choices=["json", "md", "text"])
    v.add_argument("--out", default=None)
    sub.add_parser("list-suites", help="print the suite registry")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.command == "list-suites":
        width = max(len(n) for n in SUITES)
        desc_width = max(len(suite.description) for suite in SUITES.values())
        for name in sorted(SUITES):
            suite = SUITES[name]
            print(f"{name:<{width}}  {suite.description:<{desc_width}}  "
                  f"{domain_text(suite.domains)}".rstrip())
        return 0
    if args.command != "verify":
        parser.print_usage()
        return 2
    given = {key: getattr(args, key) for key in PARAMS if getattr(args, key) is not None}
    try:
        checks = run_suite(args.suite, given, seed=args.seed)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    checks.sort(key=lambda c: c.id)
    blob = report_emit(args.suite, {**given, "seed": args.seed}, checks, args.fmt)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(blob.decode())
    return 0 if all(c.status == "pass" for c in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
