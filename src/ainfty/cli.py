"""Command line interface: configuration ingestion, subcommand dispatch,
and deterministic CSV/JSON emission.

Every output carries a run manifest (command, config digests, seed,
tolerances, version); identical manifests produce byte-identical output.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .charts import (canonical_multiplier, chart_forward, chart_inverse,
                     gauge_point, transition)
from .config import config_digest, config_from_dict, validate
from .errors import AinftyError
from .geometry import ImHPoint
from .isomorphism import apply_isomorphism, build_isomorphism, isomorphism_exists
from .potential import flow_log_g, growth_exponent, phi
from .quotient import base_section, class_of, section_divisor
from .verification import SUITES, run_suites

_CONFIG_SCHEMA = """config JSON schema:
  {"family": "power_law", "beta": <finite float > 1>, "truncation": <int>,
   "max_truncation": <int, optional>}
  {"family": "finite", "centers": [[t, re, im], ...]}
section JSON schema:
  {"deviations": [{"z": [re, im], "gap": [lower_index|null, upper_index|null]}, ...]}
iso JSON schema:
  {"config_a": <config or path>, "config_b": <config or path>,
   "disk": <float>, "allow_shift": <bool, default true>}
points are comma separated: t,re,im  (chart points: t,re,im[,theta])"""


class UsageError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}")


def _load_config(source):
    data = _load_json(source) if isinstance(source, str) else source
    try:
        return config_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad configuration: {exc}")


def _load_section(config, path):
    data = _load_json(path)
    from .quotient import QuotientClass
    section = base_section(config)
    try:
        for dev in data.get("deviations", []):
            z = complex(dev["z"][0], dev["z"][1])
            lo, hi = dev["gap"]
            gap = QuotientClass(z=z, lower=lo, upper=hi)
            section = section.deviate(z, gap)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise UsageError(f"bad section file {path}: {exc}")
    return section


def _parse_point(text, with_theta=False):
    parts = text.split(",")
    want = (3, 4) if with_theta else (3,)
    if len(parts) not in want:
        raise UsageError(f"point must be {'t,re,im[,theta]' if with_theta else 't,re,im'}")
    try:
        vals = [float(x) for x in parts]
    except ValueError as exc:
        raise UsageError(f"bad point {text!r}: {exc}")
    return vals


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("complex values are re,im")
    return complex(float(parts[0]), float(parts[1]))


def _check_disk(radius, what="--disk"):
    """The disk radius, when it is a number >= 0 (inf allowed)."""
    if not radius >= 0:
        raise UsageError(f"{what} must be nonnegative, got {radius!r}")
    return radius


def _manifest(command, args, configs):
    m = {"command": command, "version": __version__,
         "configs": {k: config_digest(v) for k, v in configs.items()}}
    for field in ("seed", "eps", "disk", "samples"):
        if getattr(args, field.replace("-", "_"), None) is not None:
            m[field] = getattr(args, field.replace("-", "_"))
    return json.dumps(m, sort_keys=True, separators=(",", ":"))


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cx(z):
    return [z.real, z.imag]


def _json_out(args, manifest, payload):
    payload = dict(payload)
    payload["manifest"] = json.loads(manifest)
    _emit(args, json.dumps(payload, sort_keys=True, default=repr) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args):
    cfg = _load_config(args.config)
    rep = validate(cfg)
    _json_out(args, _manifest("validate", args, {"config": cfg}), {
        "generic": rep.generic,
        "duplicates": list(map(list, rep.duplicates)),
        "summable": rep.summable,
        "summability_bound": rep.summability_bound,
        "chart_admissible": rep.chart_admissible,
        "zero_real_indices": list(rep.zero_real_indices),
        "n_enumerated": rep.n_enumerated,
    })
    return 0


def _cmd_phi(args):
    cfg = _load_config(args.config)
    t, re, im = _parse_point(args.point)
    v = phi(cfg, ImHPoint(t, complex(re, im)), args.eps)
    _json_out(args, _manifest("phi", args, {"config": cfg}),
              {"value": v.value, "error_bound": v.error_bound})
    return 0


def _cmd_flow(args):
    cfg = _load_config(args.config)
    z = _parse_complex(args.z)
    v = flow_log_g(cfg, z, args.from_t, args.to_t, args.eps)
    _json_out(args, _manifest("flow", args, {"config": cfg}),
              {"value": v.value, "error_bound": v.error_bound})
    return 0


def _cmd_classify_point(args):
    cfg = _load_config(args.config)
    t, re, im = _parse_point(args.point)
    cls = class_of(cfg, ImHPoint(t, complex(re, im)))
    payload = {"z": _cx(cls.z)}
    if cls.is_fixed:
        payload["fixed"] = cls.fixed
    else:
        payload["gap"] = [cls.lower, cls.upper]
    _json_out(args, _manifest("classify-point", args, {"config": cfg}), payload)
    return 0


def _cmd_k_divisor(args):
    cfg = _load_config(args.config)
    s1 = _load_section(cfg, args.section_a)
    s2 = _load_section(cfg, args.section_b)
    div = section_divisor(cfg, s1, s2, _check_disk(args.disk))
    _json_out(args, _manifest("k-divisor", args, {"config": cfg}),
              {"divisor": [{"z": _cx(z), "k": k} for z, k in div.entries]})
    return 0


def _cmd_chart(args):
    cfg = _load_config(args.config)
    section = _load_section(cfg, args.section)
    mult = canonical_multiplier(cfg, section)
    vals = _parse_point(args.point, with_theta=True)
    theta = vals[3] if len(vals) == 4 else 0.0
    pt = gauge_point(cfg, vals[0], complex(vals[1], vals[2]), theta)
    p, q = chart_forward(cfg, section, mult, pt, args.eps)
    man = _manifest("chart", args, {"config": cfg})
    _emit(args, f"# manifest {man}\n{p.real!r},{p.imag!r},{q.real!r},{q.imag!r}\n")
    return 0


def _cmd_invert(args):
    cfg = _load_config(args.config)
    section = _load_section(cfg, args.section)
    mult = canonical_multiplier(cfg, section)
    p = _parse_complex(args.p)
    q = _parse_complex(args.q)
    pt = chart_inverse(cfg, section, mult, (p, q), args.eps)
    man = _manifest("invert", args, {"config": cfg})
    _emit(args, f"# manifest {man}\n"
                f"{pt.zeta.t!r},{pt.zeta.z.real!r},{pt.zeta.z.imag!r},{pt.theta!r}\n")
    return 0


def _cmd_transition(args):
    cfg = _load_config(args.config)
    m1 = canonical_multiplier(cfg, _load_section(cfg, args.section_a))
    m2 = canonical_multiplier(cfg, _load_section(cfg, args.section_b))
    p = _parse_complex(args.p)
    q = _parse_complex(args.q)
    p2, q2 = transition(m1, m2, (p, q))
    man = _manifest("transition", args, {"config": cfg})
    _emit(args, f"# manifest {man}\n{p2.real!r},{p2.imag!r},{q2.real!r},{q2.imag!r}\n")
    return 0


def _cmd_isom(args):
    ca = _load_config(args.config_a)
    cb = _load_config(args.config_b)
    cert = isomorphism_exists(ca, cb, _check_disk(args.disk), allow_shift=not args.no_shift)
    _json_out(args, _manifest("isom", args, {"config_a": ca, "config_b": cb}), {
        "isomorphic": cert.isomorphic,
        "shift": _cx(cert.shift),
        "fibers": [{"z": _cx(f.z), "order_type_a": str(f.order_type_a),
                    "order_type_b": str(f.order_type_b), "ok": f.ok}
                   for f in cert.fibers],
        "obstruction": cert.obstruction,
    })
    return 0 if cert.isomorphic else 1


def _cmd_map_point(args):
    iso = _load_json(args.iso)
    try:
        ca = _load_config(iso["config_a"])
        cb = _load_config(iso["config_b"])
        disk = _check_disk(float(iso["disk"]), "the iso file's disk")
        allow_shift = bool(iso.get("allow_shift", True))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad iso file: {exc}")
    data = build_isomorphism(ca, cb, disk, allow_shift)
    vals = _parse_point(args.point, with_theta=True)
    theta = vals[3] if len(vals) == 4 else 0.0
    pt = gauge_point(ca, vals[0], complex(vals[1], vals[2]), theta)
    img = apply_isomorphism(data, pt, args.eps)
    man = _manifest("map-point", args, {"config_a": ca, "config_b": cb})
    _emit(args, f"# manifest {man}\n"
                f"{img.zeta.t!r},{img.zeta.z.real!r},{img.zeta.z.imag!r},{img.theta!r}\n")
    return 0


def _cmd_growth(args):
    if args.config:
        cfg = _load_config(args.config)
    elif args.beta is not None:
        cfg = _load_config({"family": "power_law", "beta": args.beta,
                            "truncation": args.truncation})
    else:
        raise UsageError("growth needs --config or --beta")
    if args.points < 2:
        raise UsageError("growth needs at least two rho points")
    for flag, value in (("--rho-min", args.rho_min), ("--rho-max", args.rho_max)):
        if not 0.0 < value < math.inf:
            raise UsageError(f"{flag} must be finite and positive, got {value!r}")
    if not math.isfinite(args.samples):
        raise UsageError(f"--samples must be finite, got {args.samples!r}")
    rho = [args.rho_min * (args.rho_max / args.rho_min) ** (k / (args.points - 1))
           for k in range(args.points)]
    fit = growth_exponent(cfg, rho, int(args.samples), args.seed)
    man = _manifest("growth", args, {"config": cfg})
    lines = [f"# manifest {man}", "rho,W,logrho,logW"]
    for (lr, lw), r in zip(fit.samples, sorted(set(rho))):
        lines.append(f"{r!r},{10.0 ** lw!r},{lr!r},{lw!r}")
    lines.append(f"slope,{fit.slope!r},stderr,{fit.slope_stderr!r}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, args.seed)
    lines = [f"# manifest {_manifest('verify', args, {})}"]
    failed = 0
    for suite, name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        failed += not passed
        lines.append(f"[{status}] {suite}: {name}" + (f" ({detail})" if detail else ""))
    _emit(args, "\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ainfty",
        description="Computations on multi-center Gibbons-Hawking geometries.",
        epilog=_CONFIG_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config=True, eps=True):
        if config:
            p.add_argument("--config", required=True, help="configuration JSON path")
        if eps:
            p.add_argument("--eps", type=float, default=1e-10)
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("validate");  common(p, eps=False); p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("phi");       common(p)
    p.add_argument("--point", required=True); p.set_defaults(fn=_cmd_phi)

    p = sub.add_parser("flow");      common(p)
    p.add_argument("--z", required=True, help="fiber base as re,im")
    p.add_argument("--from-t", type=float, required=True, dest="from_t")
    p.add_argument("--to-t", type=float, required=True, dest="to_t")
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("classify-point"); common(p, eps=False)
    p.add_argument("--point", required=True); p.set_defaults(fn=_cmd_classify_point)

    p = sub.add_parser("k-divisor"); common(p, eps=False)
    p.add_argument("--section-a", required=True)
    p.add_argument("--section-b", required=True)
    p.add_argument("--disk", type=float, default=100.0)
    p.set_defaults(fn=_cmd_k_divisor)

    p = sub.add_parser("chart");     common(p)
    p.add_argument("--section", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=_cmd_chart)

    p = sub.add_parser("invert");    common(p)
    p.add_argument("--section", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("transition"); common(p, eps=False)
    p.add_argument("--section-a", required=True)
    p.add_argument("--section-b", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=_cmd_transition)

    p = sub.add_parser("isom")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--disk", type=float, default=100.0)
    p.add_argument("--no-shift", action="store_true",
                   help="require the fiber base sets to match without translation")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_isom)

    p = sub.add_parser("map-point")
    p.add_argument("--iso", required=True, help="iso JSON path")
    p.add_argument("--point", required=True)
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_map_point)

    p = sub.add_parser("growth")
    p.add_argument("--config")
    p.add_argument("--beta", type=float)
    p.add_argument("--truncation", type=int, default=4096)
    p.add_argument("--rho-min", type=float, default=1e2, dest="rho_min")
    p.add_argument("--rho-max", type=float, default=1e4, dest="rho_max")
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--samples", type=float, default=1e6)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("verify")
    p.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n\n{_CONFIG_SCHEMA}\n")
        return 2
    except AinftyError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
