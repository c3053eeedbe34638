"""Command-line interface: derive identities, verify them, inspect h(x)."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .charfn import full_char_poly, h_via_a, h_via_d
from .engine import DerivationError, identity_coeffs, newton_coeffs, osp_specialize
from .matrices import check_sampler_args, random_supermatrix
from .verifier import verify_batch

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _positive(value):
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _nonnegative(value):
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


class UsageError(Exception):
    """Bad command-line input; reported as one stderr line with exit 2."""


def _seed(args) -> int:
    """--seed if given, else SUPERCH_DEFAULT_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    value = os.environ.get("SUPERCH_DEFAULT_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"SUPERCH_DEFAULT_SEED must be an integer, got {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superch",
        description="Exact super-Cayley-Hamilton identities for (p,q) supermatrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seeded=False):
        sp.add_argument("p", type=_nonnegative, help="even-block dimension")
        sp.add_argument("q", type=_nonnegative, help="odd-block dimension")
        if seeded:
            sp.add_argument("--seed", type=int, default=None, help="RNG seed")
        # a sampled report has no LaTeX rendering
        formats = ("text", "json") if seeded else ("text", "json", "latex")
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--out", type=str, default=None, help="write output to a file")

    derive = sub.add_parser("derive", help="derive the (p,q) identity")
    common(derive)
    derive.add_argument("--osp", action="store_true", help="OSp specialization")

    verify = sub.add_parser("verify", help="verify the identity on random samples")
    common(verify, seeded=True)
    verify.add_argument("--trials", type=_positive, default=25)
    verify.add_argument("--generators", type=_positive, default=6)
    verify.add_argument("--soul-grade", type=_positive, default=3)

    charfn = sub.add_parser("charfn", help="characteristic function of a random sample")
    common(charfn, seeded=True)
    charfn.add_argument("--generators", type=_positive, default=6)
    charfn.add_argument("--soul-grade", type=_positive, default=3)

    newton = sub.add_parser("newton", help="classical Newton coefficients b_0..b_k")
    newton.add_argument("n", type=_positive, help="number of supertrace symbols")
    newton.add_argument("k", type=int, help="highest coefficient index")
    newton.add_argument("--format", choices=("text", "json", "latex"), default="text")
    newton.add_argument("--out", type=str, default=None)

    return parser


def _emit(text: str, out_path):
    if out_path:
        try:
            fh = open(out_path, "w")
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None
        with fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_derive(args) -> int:
    ident = identity_coeffs(args.p, args.q)
    if args.osp:
        try:
            ident = osp_specialize(ident)
        except DerivationError as exc:
            raise UsageError(f"no OSp identity for (p,q)=({args.p},{args.q}): {exc}") from None
    _emit(ident.render(args.format), args.out)
    return EXIT_OK


def cmd_verify(args, identity=None) -> int:
    seed = _seed(args)
    report = verify_batch(
        args.p,
        args.q,
        trials=args.trials,
        seed=seed,
        n_gen=args.generators,
        max_soul_grade=args.soul_grade,
        identity=identity,
    )
    if args.format == "json":
        _emit(report.to_json_string(), args.out)
    else:
        _emit(report.summary(), args.out)
    return EXIT_OK if report.all_passed() else EXIT_VERIFY_FAILED


def cmd_charfn(args) -> int:
    seed = _seed(args)
    m = random_supermatrix(args.p, args.q, args.generators, seed, args.soul_grade)
    rd = h_via_d(m)
    ra = h_via_a(m)
    equivalent = rd.cross_equal(ra)
    pfull = full_char_poly(m)
    if args.format == "json":
        payload = {
            "p": args.p,
            "q": args.q,
            "seed": seed,
            "via_d": {"numerator": rd.numerator.to_json(), "denominator": rd.denominator.to_json()},
            "via_a": {"numerator": ra.numerator.to_json(), "denominator": ra.denominator.to_json()},
            "equivalent": equivalent,
            "full_char_poly": pfull.to_json(),
            "full_char_poly_degree": pfull.degree(),
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"sample (p,q)=({args.p},{args.q}), seed={seed}",
            f"h(x) {rd}",
            f"h(x) {ra}",
            f"equivalence (cross-multiplied): {equivalent}",
            f"P(x) = a(x)^(q+1) d(x)^(p+1), degree {pfull.degree()}:",
            f"  {pfull}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_newton(args) -> int:
    if args.k < 0:
        raise UsageError("k must be >= 0")
    coeffs = newton_coeffs(args.n, args.k)
    if args.format == "json":
        _emit(json.dumps([c.to_json() for c in coeffs], indent=2), args.out)
    elif args.format == "latex":
        _emit("\n".join(f"b_{{{j}}} = {c.to_latex()}" for j, c in enumerate(coeffs)), args.out)
    else:
        _emit("\n".join(f"b_{j} = {c}" for j, c in enumerate(coeffs)), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "derive": cmd_derive,
        "verify": cmd_verify,
        "charfn": cmd_charfn,
        "newton": cmd_newton,
    }
    try:
        if args.command != "newton" and args.p + args.q < 1:
            raise UsageError("need p + q >= 1")
        if args.command in ("verify", "charfn"):
            try:
                check_sampler_args(args.generators, args.soul_grade)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"superch {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
