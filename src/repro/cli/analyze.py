"""``repro analyze``: static analysis over a compiled scheme, or every
ground-truth scheme of the suite (:mod:`repro.ir.analysis`)::

    python -m repro analyze mean.scheme.json --source bids:1000
    python -m repro analyze s.json --max-elements 1000 --out report.json
    python -m repro analyze --suite all --strict --out analysis.json

Reports interval/int64 certificates, division-by-zero reachability (with a
concrete witness stream when a zero denominator is reachable), dead state
components, and well-formedness findings as versioned JSON.  Exit 0 on
``ok``/``warn`` verdicts (``--strict`` promotes warnings), 1 on an
``error`` verdict, 2 on usage errors.  ``repro run`` and ``repro serve``
run the same analysis as a preflight and refuse ``error``-verdict schemes
unless ``--no-analyze`` is given.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from ..core.scheme import OnlineScheme
from ..evaluation.export import write_report
from ..runtime.sources import SPEC_GRAMMAR
from .common import DOMAINS, CommandError, check_max_elements, domain_benchmarks, load_scheme


def _analysis_summary_line(report: dict) -> str:
    """One human line per analyzed scheme: verdict, certificates, hazards."""
    iv = report.get("intervals", {})
    certs = sum(1 for s in iv.get("state", ()) if s.get("int64"))
    total = len(iv.get("state", ()))
    dz = report.get("divzero", {}).get("verdict", "?")
    bits = [f"divzero={dz}", f"int64={certs}/{total}"]
    removable = report.get("liveness", {}).get("removable", ())
    if removable:
        bits.append(f"dead-state={','.join(removable)}")
    name = report.get("scheme") or "<scheme>"
    return f"{report.get('verdict', '?'):5s}  {name}  ({'; '.join(bits)})"


def _backend_report_line(scheme: OnlineScheme, name: str, bounds) -> tuple[str, dict]:
    """Columnar admission verdict for what an ``auto`` operator over one
    scheme batches: a human line plus the JSON fragment attached to the
    analysis report under ``"backend"``."""
    admission = scheme.columnar_admission(bounds)
    fragment = {"columnar": admission.verdict, "reason": admission.reason}
    if admission.verdict == "certified-int64":
        detail = "int64 columnar licensed, bit-identical under --backend auto"
    else:
        detail = admission.reason
    return f"backend {name}: {admission.verdict} — {detail}", fragment


def _cmd_analyze(args: argparse.Namespace) -> int:
    from ..ir.analysis import (
        ANALYSIS_FORMAT,
        ANALYSIS_VERSION,
        AnalysisBounds,
        FieldBounds,
        bounds_from_spec,
        exit_code,
    )

    if (args.scheme is None) == (args.suite is None):
        raise CommandError("pass exactly one of SCHEME.json or --suite")
    check_max_elements(args.max_elements)
    spec_bounds = None
    if args.source is not None:
        try:
            spec_bounds = bounds_from_spec(args.source, args.max_elements)
        except ValueError as exc:
            raise CommandError(str(exc)) from None

    if args.scheme is not None:
        scheme = load_scheme(args.scheme)
        name = args.name or Path(args.scheme).stem
        bounds = spec_bounds or AnalysisBounds(max_elements=args.max_elements)
        report = payload = scheme.analyze(bounds, name=name, search_witness=not args.no_witness)
        code = exit_code(report, strict=args.strict)
        print(_analysis_summary_line(report))
        if args.backend_report:
            line, report["backend"] = _backend_report_line(scheme, name, bounds)
            print(line)
        for finding in report.get("findings", ()):
            if finding.get("level") != "info" or args.verbose:
                print(f"  [{finding.get('level')}/{finding.get('analysis')}] "
                      f"{finding.get('message')}")
    else:
        reports, skipped = [], []
        for bench in domain_benchmarks(args.suite):
            if bench.ground_truth is None:
                skipped.append(bench.name)
                continue
            # Without a source, shape-only bounds: the benchmark states its
            # element arity even when no concrete range is known.
            bounds = spec_bounds or AnalysisBounds(
                element=tuple(FieldBounds() for _ in range(bench.element_arity)),
                max_elements=args.max_elements,
            )
            report = bench.ground_truth.analyze(
                bounds, name=bench.name, search_witness=not args.no_witness
            )
            reports.append(report)
            print(_analysis_summary_line(report))
            if args.backend_report:
                line, report["backend"] = _backend_report_line(
                    bench.ground_truth, bench.name, bounds
                )
                print(f"  {line}")
        counts = {"ok": 0, "warn": 0, "error": 0}
        for r in reports:
            counts[r.get("verdict", "error")] += 1
        worst = "error" if counts["error"] else "warn" if counts["warn"] else "ok"
        payload = {
            "format": f"{ANALYSIS_FORMAT}-suite",
            "version": ANALYSIS_VERSION,
            "suite": args.suite,
            "verdict": worst,
            "summary": counts,
            "skipped": skipped,
            "schemes": reports,
        }
        code = exit_code(payload, strict=args.strict)
        line = (
            f"{len(reports)} scheme(s): {counts['ok']} ok, "
            f"{counts['warn']} warn, {counts['error']} error"
        )
        if skipped:
            line += f"; {len(skipped)} without a ground truth skipped"
        print(line)

    if args.out:
        write_report(payload, args.out)
        print(f"report written to {args.out}")
    elif args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return code


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "analyze",
        help="static analysis over a compiled scheme (or the whole suite): "
             "interval/int64 certification, div-by-zero reachability, dead "
             "state, well-formedness",
        epilog=SPEC_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("scheme", nargs="?", default=None,
                   help="scheme file produced by `repro compile` (omit with --suite)")
    p.add_argument("--suite", default=None, choices=DOMAINS,
                   help="analyze every ground-truth scheme of a benchmark "
                        "domain instead of one file")
    p.add_argument("--source", default=None, metavar="SPEC",
                   help="derive element bounds from a stream source spec, "
                        "e.g. bids:1000 (sharpens interval and int64 "
                        "certificates; grammar below)")
    p.add_argument("--max-elements", type=int, default=None, metavar="N",
                   help="assume the stream is at most N elements long "
                        "(enables affine growth certificates)")
    p.add_argument("--name", default=None,
                   help="scheme name for the report (default: file stem)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the full JSON report to FILE")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON report to stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on warnings too (default: only on error verdicts)")
    p.add_argument("--no-witness", action="store_true",
                   help="skip the concrete div-by-zero witness search "
                        "(faster; reachable sites degrade to unknown)")
    p.add_argument("--backend-report", action="store_true",
                   help="also print the columnar-backend admission verdict "
                        "per scheme (certified-int64, or uncertified + the "
                        "first blocking reason)")
    p.add_argument("--verbose", action="store_true", help="also print info-level findings")
    p.set_defaults(func=_cmd_analyze)
