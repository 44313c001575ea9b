"""Command-line entry point for the checks that need no module spec.

    gtsingular findim 3 1 0 0 [--classical]
    gtsingular appendix [--samples N] [--seed S] [--classical]

Prints the check's report and exits 0 on PASS, 1 on FAIL and 2 on a usage
error, such as a weight that is not weakly decreasing.
"""

import argparse
import sys

from . import verify
from .exactalg import CLASSICAL, QUANTUM


def _parser():
    parser = argparse.ArgumentParser(prog="gtsingular", description=__doc__.split("\n")[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--classical", action="store_true",
                        help="classical gl(n) instead of quantum")
    sub = parser.add_subparsers(dest="check", required=True)
    findim = sub.add_parser("findim", parents=[common],
                            help="finite-dimensional module of a dominant integral weight")
    findim.add_argument("lam", type=int, nargs="+", help="highest weight, weakly decreasing")
    appendix = sub.add_parser("appendix", parents=[common],
                              help="identities of the singular-point functional")
    appendix.add_argument("--samples", type=int, help="number of random samples")
    appendix.add_argument("--seed", type=int, help="random seed")
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    mode = CLASSICAL if args.classical else QUANTUM
    # looked up in verify at call time, so a rebinding there is honoured
    try:
        if args.check == "findim":
            report = verify.check_finite_dimensional(args.lam, mode)
        else:
            given = {k: getattr(args, k) for k in ("samples", "seed")
                     if getattr(args, k) is not None}
            report = verify.check_appendix(mode, **given)
    except ValueError as exc:
        parser.error(str(exc))
    print(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
