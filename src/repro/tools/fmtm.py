"""The Exotica/FMTM pre-processor as a command-line tool.

Usage::

    python -m repro.tools.fmtm SPEC_FILE [--fdl-out FILE] [--run]
        [--abort STEP[,STEP...]] [--input NAME=VALUE ...]

Reads an FMTM specification (MODEL SAGA / FLEXIBLE / CONTRACT),
validates it, translates it, prints the pipeline stages, and writes
the generated FDL.  With ``--run`` the translated process executes
against stub subtransactions (each writes a flag key to an in-memory
database; ``--abort`` makes the named steps abort their first attempt)
and the tool prints the execution trace — enough to explore every
branch of a model without writing code.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.tx import AbortScript, SimDatabase, Subtransaction
from repro.tx.subtransaction import write_value
from repro.wfms.engine import Engine
from repro.core.bindings import register_programs, workflow_outcome
from repro.core.fmtm import FMTMPipeline, translate
from repro.core.speclang import parse_spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.fmtm",
        description="Translate FMTM specifications into workflow processes.",
    )
    parser.add_argument("spec", help="specification file (MODEL ... END)")
    parser.add_argument(
        "--fdl-out", metavar="FILE", help="write the generated FDL here"
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="execute the translated process against stub subtransactions",
    )
    parser.add_argument(
        "--abort",
        default="",
        metavar="STEPS",
        help="comma-separated steps whose first attempt aborts (with --run)",
    )
    parser.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="process input member (contract context), repeatable",
    )
    return parser


def _prepare(spec, aborts, engine, database):
    """Translate ``spec`` and register stub programs for it: each
    member writes its flag, each compensation clears it."""
    translation = translate(spec)
    actions = {}
    for name in translation.programs:
        actions[name] = Subtransaction(name, database, write_value(name, 1))
        if name in aborts:
            actions[name].policy = AbortScript([1])
    compensations = {
        name: Subtransaction("undo_%s" % name, database, write_value(name, 0))
        for name in translation.compensation_programs
    }
    register_programs(engine, translation, actions, compensations)


def _parse_inputs(pairs):
    values = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError("--input expects NAME=VALUE, got %r" % pair)
        name, __, raw = pair.partition("=")
        try:
            values[name] = int(raw)
        except ValueError:
            values[name] = raw
    return values


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            text = handle.read()
        spec = parse_spec(text)
        aborts = {s for s in args.abort.split(",") if s}
        database = SimDatabase("stub")
        engine = Engine()
        _prepare(spec, aborts, engine, database)
        pipeline = FMTMPipeline(engine)
        report = pipeline.process_specification(text)
        print("model:    %s" % type(spec).__name__, file=out)
        print("process:  %s" % report.process_name, file=out)
        for stage in report.stages:
            print(
                "  %-22s %.6fs %s"
                % (stage.name, stage.seconds, stage.detail),
                file=out,
            )
        if args.fdl_out:
            with open(args.fdl_out, "w", encoding="utf-8") as handle:
                handle.write(report.fdl_text)
            print("fdl:      %s (%d chars)" % (args.fdl_out, len(report.fdl_text)), file=out)
        if args.run:
            inputs = _parse_inputs(args.input)
            instance = engine.start_process(report.process_name, inputs)
            engine.run()
            outcome = workflow_outcome(engine, report.translation, instance)
            print("state:    %s" % engine.instance_state(instance), file=out)
            print("committed: %s" % outcome.committed, file=out)
            for field in ("executed", "compensated", "skipped",
                          "committed_path"):
                value = getattr(outcome, field, None)
                if value:
                    print("%s: %s" % (field, value), file=out)
            print("database: %s" % database.snapshot(), file=out)
    except (OSError, ReproError) as exc:
        print("error: %s" % exc, file=out)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
