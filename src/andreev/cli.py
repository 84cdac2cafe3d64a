"""Command-line front end.

Verdict-style subcommands use the exit code for scripting: 0 means
success, 1 a negative domain verdict (invalid complex, empty angle set,
infeasible angles) or a typed realization failure, 2 malformed input.  Output is JSON on stdout unless
--output is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from . import angles as angle_sets
from . import complexes, minkowski, realize, whitehead


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="andreev")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("validate", "circuits", "check-angles", "feasible",
                 "reduce", "realize"):
        sp = sub.add_parser(name)
        sp.add_argument("--input", required=True)
        sp.add_argument("--output")
        if name in ("check-angles", "realize"):
            sp.add_argument("--angles", required=True)
        if name == "realize":
            sp.add_argument("--format", default="off",
                            choices=("off", "json", "ball_json"))
    return p


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_complex(path: str) -> complexes.AbstractPolyhedron:
    with open(path) as fh:
        return complexes.from_json(fh.read())


def _load_angles(path: str) -> angle_sets.AngleAssignment:
    with open(path) as fh:
        return angle_sets.from_json(fh.read())


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

    try:
        ap = _load_complex(args.input)
    except (OSError, ValueError) as exc:
        if args.command == "validate" and isinstance(exc, complexes.ComplexError):
            _emit(json.dumps({"valid": False, "reason": str(exc)}), args.output)
            return 1
        print(f"cannot read complex: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            _emit(json.dumps({"valid": True, "name": ap.name,
                              "faces": ap.face_count, "edges": ap.edge_count,
                              "vertices": ap.vertex_count,
                              "simple": complexes.is_simple(ap)}), args.output)
            return 0

        if args.command == "circuits":
            found = (complexes.prismatic_circuits(ap, 3)
                     + complexes.prismatic_circuits(ap, 4))
            _emit(complexes.circuits_to_json(found), args.output)
            return 0

        if args.command == "check-angles":
            a = _load_angles(args.angles)
            report = angle_sets.check_conditions(ap, a)
            _emit(json.dumps({"member": report.member,
                              **dataclasses.asdict(report)}), args.output)
            return 0 if report.member else 1

        if args.command == "feasible":
            rep = angle_sets.feasible(ap)
            _emit(angle_sets.feasibility_to_json(rep), args.output)
            return 0 if rep.nonempty else 1

        if args.command == "reduce":
            trace = whitehead.reduce_to_dn(complexes.dual(ap))
            whitehead.replay(trace)
            _emit(whitehead.trace_to_json(trace), args.output)
            return 0

        if args.command == "realize":
            a = _load_angles(args.angles)
            r = realize.realize(ap, a)
            _emit(minkowski.export(r, args.format).decode(), args.output)
            return 0
    except (OSError, ValueError) as exc:
        if isinstance(exc, angle_sets.SizeMismatch):
            print(f"bad angles: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, (angle_sets.AngleError, complexes.ComplexError,
                            whitehead.WhiteheadError,
                            minkowski.GeometryError)):
            _emit(json.dumps({"error": type(exc).__name__,
                              "detail": str(exc)}), args.output)
            return 1
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except realize.RealizeError as exc:
        _emit(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              args.output)
        return 1

    print("unknown command", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
