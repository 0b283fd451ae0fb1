"""Command-line surface: counts, spectra, certificates, and dynamics.

Exit codes: 0 clean, 1 input error, 2 degenerate or inconclusive result
(`eig`: any report that is not clean; indeterminate polynomial,
undetermined nilpotency, disagreeing probe trials, a `singular` probe
whose solve lost a path, a PSD verdict left undecided by a report that
may have lost a class).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .dynamics import NILPOTENT, NOT_NILPOTENT, base_locus, nilpotency, orbit
from .exact import hyperdeterminant_222, is_singular_222
from .homotopy import TrackerConfig
from .spectra import (
    characteristic_polynomial_numeric,
    eigenclasses,
    expected_count,
    is_positive_semidefinite,
    singular_probe,
)
from .tensor import form_from_tensor
from .tensorio import complex_pair, load_tensor, report_to_json

OK = 0
INPUT_ERROR = 1
DEGENERATE = 2

DEFAULT_SEED = 20100306


def _fmt_complex(z) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.9g}"
    return f"{z.real:.9g}{z.imag:+.9g}i"


def _config(args) -> TrackerConfig:
    seed = args.seed
    if seed == 0:
        # explicit request for fresh entropy; breaks byte-stability on purpose
        seed = int(np.random.SeedSequence().entropy % (2**31 - 63)) + 1
    kw = {"seed": seed}
    if getattr(args, "tol", None) is not None:
        kw["cluster_radius"] = args.tol
    return TrackerConfig(**kw)


def _emit(args, text: str) -> None:
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_count(args) -> int:
    _emit(args, str(expected_count(args.m, args.n)))
    return OK


def cmd_eig(args) -> int:
    loaded = load_tensor(args.input)
    report = eigenclasses(loaded.tensor, _config(args))
    if args.format == "machine":
        _emit(args, report_to_json(report))
    else:
        lines = [f"tensor m={report.m} n={report.n}, "
                 f"expected classes {report.expected_count}"]
        for i, c in enumerate(report.classes):
            rep = c.representative
            vals = ", ".join(_fmt_complex(v) for v in c.normalized_lambdas)
            xs = ", ".join(_fmt_complex(z) for z in rep.x)
            tag = " isotropic" if c.isotropic else ""
            lines.append(f"class {i}: lambda={_fmt_complex(rep.lam)} "
                         f"mult={c.multiplicity}{tag} x=({xs}) "
                         f"normalized=[{vals}]")
        lines.append(f"total multiplicity {report.total_multiplicity} / "
                     f"{report.expected_count}; "
                     f"positive_dimensional={report.positive_dimensional}; "
                     f"failed_paths={report.failed_paths}; "
                     f"degenerate_clusters={report.degenerate_clusters}; "
                     f"isotropic={report.isotropic_count}")
        _emit(args, "\n".join(lines))
    return OK if report.clean else DEGENERATE


def cmd_charpoly(args) -> int:
    loaded = load_tensor(args.input)
    cp = characteristic_polynomial_numeric(loaded.tensor, _config(args))
    if args.format == "machine":
        _emit(args, json.dumps({
            "parity": cp.parity,
            "degree": cp.degree,
            "indeterminate": cp.indeterminate,
            "reason": cp.reason,
            "coeffs": [complex_pair(c) for c in cp.coeffs],
        }, sort_keys=True, separators=(",", ":")))
    elif cp.indeterminate:
        _emit(args, f"charpoly indeterminate: {cp.reason}")
    else:
        var = "lambda" if cp.parity == "lambda" else "mu=lambda^2"
        coeffs = ", ".join(_fmt_complex(c) for c in cp.coeffs)
        _emit(args, f"charpoly in {var}, degree {cp.degree}, "
                    f"monic coefficients [{coeffs}]")
    return DEGENERATE if cp.indeterminate else OK


def cmd_psd(args) -> int:
    loaded = load_tensor(args.input)
    form = loaded.form if loaded.form is not None \
        else form_from_tensor(loaded.tensor)
    try:
        verdict = is_positive_semidefinite(form, _config(args))
    except RuntimeError as e:
        verdict, why = None, str(e)
    if args.format == "machine":
        obj = {"psd": verdict}
        if verdict is None:
            obj["inconclusive"] = why
        _emit(args, json.dumps(obj))
    elif verdict is None:
        _emit(args, "PSD: undecided")
    else:
        _emit(args, f"PSD: {'true' if verdict else 'false'}")
    return DEGENERATE if verdict is None else OK


def cmd_singular(args) -> int:
    loaded = load_tensor(args.input)
    A = loaded.tensor
    cfg = _config(args)
    inconclusive = False
    try:
        probe = singular_probe(A, trials=args.trials, cfg=cfg)
    except RuntimeError as e:
        probe, inconclusive, why = None, True, str(e)
    exact = None
    if A.m == 3 and A.n == 2 and A.exact is not None:
        exact = is_singular_222(A)
    if args.format == "machine":
        obj = {"exact": exact}
        if probe is None:
            obj["probe"] = {"inconclusive": why}
        else:
            obj["probe"] = {
                "kind": probe.kind,
                "trials": probe.trials,
                "values": [complex_pair(v) for v in probe.values],
                "exceptions": [complex_pair(v) for v in probe.exceptions],
            }
        _emit(args, json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        lines = []
        if probe is None:
            lines.append(f"probe: inconclusive ({why})")
        elif probe.cofinite:
            exc = ", ".join(_fmt_complex(v) for v in probe.exceptions)
            lines.append(f"probe: cofinite (all {probe.trials} trials found "
                         f"a normalized witness; exceptions ~ [{exc}])")
        else:
            vals = ", ".join(_fmt_complex(v) for v in probe.values)
            lines.append(f"probe: finite values [{vals}]")
        if exact is None:
            lines.append("exact: unavailable (needs 2x2x2 rational entries)")
        else:
            lines.append(f"exact: {'singular' if exact else 'not singular'}")
        _emit(args, "\n".join(lines))
    return DEGENERATE if inconclusive else OK


def cmd_hyperdet(args) -> int:
    loaded = load_tensor(args.input)
    A = loaded.tensor
    if A.m != 3 or A.n != 2 or A.exact is None:
        raise ValueError("hyperdet needs a dense 2x2x2 tensor with exact "
                         "(integer or rational-string) entries")
    det = hyperdeterminant_222(A)
    if args.format == "machine":
        _emit(args, json.dumps({"hyperdet": str(det)}))
    else:
        _emit(args, str(det))
    return OK


def cmd_dynamics(args) -> int:
    loaded = load_tensor(args.input)
    A = loaded.tensor
    cfg = _config(args)
    report = eigenclasses(A, cfg)
    verdict = nilpotency(A, kmax=args.kmax, cfg=cfg, report=report)
    locus = base_locus(A, cfg, report=report)
    trace = None
    if args.start:
        p0 = [complex(s) for s in args.start.split(",")]
        trace = orbit(A, p0, kmax=args.kmax)
    if args.format == "machine":
        obj = {
            "base_locus": [[complex_pair(z) for z in p.coords]
                           for p in locus],
            "nilpotency": {
                "status": verdict.status,
                "k": verdict.k,
                "witness_lambda": (
                    complex_pair(verdict.witness.representative.lam)
                    if verdict.witness is not None else None),
            },
        }
        if trace is not None:
            obj["orbit"] = {
                "points": [[complex_pair(z) for z in p.coords]
                           for p in trace],
                "base_locus_hit": trace.base_locus_hit,
                "fixed_point": trace.fixed_point,
            }
        _emit(args, json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        lines = [f"base locus: {len(locus)} point(s)"]
        for p in locus:
            coords = " : ".join(_fmt_complex(z) for z in p.coords)
            lines.append(f"  ({coords})")
        if verdict.status == NILPOTENT:
            lines.append(f"nilpotency: nilpotent (iterate {verdict.k} "
                         f"vanishes identically)")
        elif verdict.status == NOT_NILPOTENT:
            lam = verdict.witness.representative.lam
            lines.append(f"nilpotency: not nilpotent "
                         f"(eigenvalue {_fmt_complex(lam)} != 0)")
        else:
            lines.append(f"nilpotency: undetermined up to kmax={verdict.k}")
        if trace is not None:
            lines.append("orbit:")
            prev = None
            for k, p in enumerate(trace):
                coords = " ".join(_fmt_complex(z) for z in p.coords)
                dist = 0.0 if prev is None else p.distance(prev)
                lines.append(f"  {k}\t{coords}\t{dist:.3e}")
                prev = p
            if trace.base_locus_hit:
                lines.append("  -> base locus")
            elif trace.fixed_point:
                lines.append(f"  -> fixed point, eigenvalue "
                             f"{_fmt_complex(trace.eigenvalue)}")
        _emit(args, "\n".join(lines))
    return DEGENERATE if verdict.status not in (NILPOTENT, NOT_NILPOTENT) \
        else OK


def _add_common(sp, trials=False, kmax=False, start=False):
    sp.add_argument("input", help="tensor file (JSON)")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="tracker seed; 0 draws fresh entropy")
    sp.add_argument("--tol", type=float, default=None,
                    help="cluster-radius override")
    sp.add_argument("--format", choices=("human", "machine"),
                    default="human")
    sp.add_argument("--output", default=None, help="write result to a file")
    if trials:
        sp.add_argument("--trials", type=int, default=5,
                        help="probe trial count (>= 3)")
    if kmax:
        sp.add_argument("--kmax", type=int, default=6,
                        help="iterate bound for nilpotency/orbits")
    if start:
        sp.add_argument("--start", default=None,
                        help="comma-separated start point for an orbit trace")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teneig",
        description="Eigenvalue classes, certificates, and dynamics of "
                    "complex tensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", help="number of eigenvalue classes")
    sp.add_argument("m", type=int)
    sp.add_argument("n", type=int)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_count)

    for name, func, extras in (
            ("eig", cmd_eig, {}),
            ("charpoly", cmd_charpoly, {}),
            ("psd", cmd_psd, {}),
            ("singular", cmd_singular, {"trials": True}),
            ("hyperdet", cmd_hyperdet, {}),
            ("dynamics", cmd_dynamics, {"kmax": True, "start": True})):
        sp = sub.add_parser(name)
        _add_common(sp, **extras)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
