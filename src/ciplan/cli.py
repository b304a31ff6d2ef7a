"""Command-line front end: validate, solve, compress, measure, verify-gap,
oracle, and check-conditions subcommands over model and compression files.

Exit statuses: 0 success, 1 verification failure, 2 input or validation
error, 3 budget exhaustion.  Structured reports are deterministic byte for
byte across repeated invocations.

Each subcommand imports only the modules it runs, inside its branch of
``run_command``, so a process compiles and loads no other.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .model import DEFAULT_BUDGET, BudgetExceededError, load_model

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ciplan",
        description="Finite-horizon Dec-POMDP planning via coordinator histories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_flags(p, compressions=False):
        p.add_argument("--model", required=True, help="model file (JSON)")
        if compressions:
            p.add_argument(
                "--compression",
                action="append",
                default=[],
                help="compression file; repeat for private and common",
            )
            # One choice, compression.REFERENCE_MEASURE: kept so that existing
            # command lines still parse.
            p.add_argument("--mu", default="uniform", choices=["uniform"])
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--out", default=None, help="directory for report files")
        p.add_argument(
            "--format", default="structured", choices=["table", "structured"]
        )

    common_flags(sub.add_parser("validate", help="check model invariants"))
    p = sub.add_parser("solve", help="run one dynamic program")
    p.add_argument("--alg", required=True, choices=["1", "2", "3", "4", "5"])
    common_flags(p, compressions=True)
    p = sub.add_parser("compress", help="construct a private compression")
    p.add_argument("--mode", required=True, choices=["exact", "greedy"])
    p.add_argument("--tol-r", type=float, default=0.0)
    p.add_argument("--tol-o", type=float, default=0.0)
    common_flags(p)
    common_flags(sub.add_parser("measure", help="measure compression parameters"), True)
    common_flags(sub.add_parser("verify-gap", help="observed gaps vs bounds"), True)
    common_flags(sub.add_parser("oracle", help="brute-force optimal value"))
    common_flags(
        sub.add_parser("check-conditions", help="sufficiency conditions and identities"),
        True,
    )
    return parser


def _load_compressions(args, model):
    """The private and common compression files given, at most one each, built for this model."""
    if not args.compression:
        return None, None
    from .compression import PrivateCompression, load_compression

    found: dict = {}
    for path in args.compression:
        obj = load_compression(Path(path).read_text())
        kind = "private" if isinstance(obj, PrivateCompression) else "common"
        if kind in found:
            raise ValueError(f"--compression given twice for a {kind} compression")
        if obj.horizon != model.horizon:
            raise ValueError(
                f"{kind} compression has horizon {obj.horizon}, the model {model.horizon}")
        if kind == "private" and obj.num_agents != model.num_agents:
            raise ValueError(
                f"private compression has {obj.num_agents} agents, the model {model.num_agents}")
        found[kind] = obj
    return found.get("private"), found.get("common")


def _require(obj, what: str):
    if obj is None:
        raise ValueError(f"this subcommand requires a {what} compression file")
    return obj


def _check_flags(args) -> None:
    """Reject numeric flags that parse but that no solver can use."""
    budget = getattr(args, "budget", DEFAULT_BUDGET)
    if budget < 0:
        raise ValueError(f"--budget must be non-negative, got {budget}")
    for flag in ("tol_r", "tol_o"):
        value = getattr(args, flag, 0.0)
        if not value >= 0.0:  # also false for NaN
            name = "--" + flag.replace("_", "-")
            raise ValueError(f"{name} must be a non-negative number or inf, got {value}")


def run_command(args) -> tuple[int, dict]:
    """Execute one parsed invocation; returns (exit status, report).

    Every step of one command shares one coordinator tree, and one session
    per private compression it reads.
    """
    _check_flags(args)
    model = load_model(Path(args.model).read_text())
    budget = getattr(args, "budget", DEFAULT_BUDGET)

    if args.command == "validate":
        return EXIT_OK, {"command": "validate", "model": args.model, "valid": True}

    if args.command == "oracle":
        from .exact_dp import brute_force_value

        value = brute_force_value(model, budget=budget)
        return EXIT_OK, {"command": "oracle", "value": value}

    from .histories import FcsTree

    tree = FcsTree(model)

    if args.command == "compress":
        from . import compression

        if args.mode == "exact":
            pc = compression.build_exact_private(model, tree, budget=budget)
        else:
            pc = compression.build_greedy(
                model, args.tol_r, args.tol_o, tree=tree, budget=budget
            )
        mp = compression.measure_private(model, pc, tree=tree, budget=budget)
        doc = compression.serialize_compression(pc, measured=mp)
        report = {
            "command": "compress",
            "mode": args.mode,
            "eps_p": mp.eps_p,
            "delta_p": mp.delta_p,
            "compression": json.loads(doc),
        }
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "compression_private.json").write_text(doc + "\n")
        return EXIT_OK, report

    if args.command == "measure":
        from . import compression

        pc, cc = _load_compressions(args, model)
        session = compression.Session(tree, _require(pc, "private"), cc)
        mp = compression.measure_private(model, session, budget=budget)
        report = {
            "command": "measure",
            "mu": compression.REFERENCE_MEASURE,
            "eps_p": mp.eps_p,
            "delta_p": mp.delta_p,
            "witnesses": {k: repr(v) for k, v in sorted(mp.witnesses.items())},
        }
        if cc is not None:
            mc = compression.measure_common(model, session, cc, budget=budget)
            report["eps_c"] = mc.eps_c
            report["delta_c"] = mc.delta_c
            report["witnesses"].update(
                {k: repr(v) for k, v in sorted(mc.witnesses.items())}
            )
        return EXIT_OK, report

    if args.command == "solve":
        pc, cc = _load_compressions(args, model)
        if args.alg == "1":
            from .exact_dp import solve_fcs_fps

            table, _ = solve_fcs_fps(model, tree, budget=budget)
        elif args.alg == "4":
            from .belief import solve_bcs_fps

            table, _ = solve_bcs_fps(model, tree, budget=budget)
        else:
            from . import compression

            if args.alg == "5" and pc is None:
                pc = compression.identity_private(model, tree, budget=budget)
            session = compression.Session(tree, _require(pc, "private"), cc)
            if args.alg == "2":
                from .approx_dp import solve_fcs_asps

                table, _ = solve_fcs_asps(model, session, budget=budget)
            elif args.alg == "3":
                from .approx_dp import solve_ascs_asps

                table, _ = solve_ascs_asps(
                    model, session, _require(cc, "common"), budget=budget)
            else:
                from .belief import solve_bcs_spi

                table, _ = solve_bcs_spi(model, session, budget=budget)
        from .exact_dp import solve_report

        report = solve_report(table, algorithm=f"alg{args.alg}")
        report["command"] = "solve"
        return EXIT_OK, report

    if args.command == "verify-gap":
        from . import compression, verify

        pc, cc = _load_compressions(args, model)
        session = compression.Session(tree, _require(pc, "private"), _require(cc, "common"))
        gaps = verify.verify_gaps(model, session, cc, budget=budget)
        report = {"command": "verify-gap", **gaps.to_jsonable()}
        return (EXIT_OK if gaps.passed else EXIT_VERIFY), report

    if args.command == "check-conditions":
        from . import belief, compression, verify

        pc, _cc = _load_compressions(args, model)
        identity = compression.Session(
            tree, compression.identity_private(model, tree, budget=budget))
        session = identity if pc is None else compression.Session(tree, pc)
        spi_report = belief.check_spi(model, identity, budget=budget)
        rec_report = compression.check_recursive(model, session)
        report = {
            "command": "check-conditions",
            "spi_identity": spi_report.to_jsonable(),
            "recursive": rec_report.to_jsonable(),
        }
        ok = spi_report.passed and rec_report.passed
        if rec_report.passed:
            # The deeper identities presume a well-formed recursive update.
            lemma_report = verify.check_lemmas(model, session, budget=budget)
            prop_report = belief.verify_propositions(
                model, [session], tree=tree, budget=budget, identity=identity)
            report["lemmas"] = lemma_report.to_jsonable()
            report["propositions"] = prop_report.to_jsonable()
            ok = ok and lemma_report.passed and prop_report.passed
        else:
            skipped = {"passed": False, "results": [], "note": "skipped"}
            report["lemmas"] = skipped
            report["propositions"] = skipped
        return (EXIT_OK if ok else EXIT_VERIFY), report

    raise ValueError(f"unknown command {args.command!r}")


def _render_table(doc: dict) -> str:
    """Flat, aligned text rendering of a structured report."""
    lines: list[str] = []

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for k in sorted(value):
                emit(f"{prefix}{k}.", value[k])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                emit(f"{prefix}{i}.", item)
        else:
            lines.append(f"{prefix[:-1]:<48} {value!r}")

    emit("", doc)
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    """Write the report files, if asked for, then the report to stdout."""
    structured = json.dumps(report, indent=2, sort_keys=True) + "\n"
    table = _render_table(report)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        name = args.command.replace("-", "_")
        (outdir / f"{name}_report.json").write_text(structured)
        (outdir / f"{name}_report.txt").write_text(table)
    sys.stdout.write(structured if args.format == "structured" else table)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status, report = run_command(args)
        _emit(report, args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print(f"error: {args.command} recurses too deeply for this horizon", file=sys.stderr)
        return EXIT_INPUT
    # The model and compression format and validation errors are ValueErrors.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return status


if __name__ == "__main__":
    sys.exit(main())
