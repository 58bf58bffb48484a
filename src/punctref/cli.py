"""Deterministic command-line front end over the fixture corpus.

Every command reads one JSON fixture, emits a single JSON report on stdout
(command, input digest, library version, result), and exits 0 on success, 1
when a mathematical inconsistency is found (failed identity, insensitive
subdivision, validation violations, incomplete enumeration), or 2 on
malformed input with a JSON-path diagnostic on stderr, as for a usage error
such as a flag the subcommand does not read. Output is byte-identical across
runs; --threads is accepted for interface stability but execution is always
sequential, which costs nothing at corpus scale. The handlers that call
``gerby``, ``blowups`` or the enumeration of ``tropmaps`` import them, so no
other subcommand loads them: on a fixture with a complex, only ``enumerate``
and ``sensitivity`` load ``tropmaps``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import NoReturn, Optional, Sequence

from . import __version__
from .chowring import serialize
from .conecx import validate_complex
from .fixtureio import (
    Fixture,
    SchemaError,
    _require,
    complex_to_json,
    data_to_json,
    load_fixture_file,
    load_rooting_file,
    load_subdivision_arg,
    offsets_to_json,
    trace_to_json,
    types_to_json,
)
from .puncture import (
    PrincipalizationError,
    PuncturingData,
    _segre,
    normalized_ideal,
    refined_class,
)
from .tropdata import (
    BalancingError,
    EnumerationBoundError,
    NonSmoothConeError,
    positivize,
    validate_numerical_data,
)

def _checked_complex(c):
    """The complex, refused with its first violation unless it validates."""
    violations = validate_complex(c)["violations"]
    if violations:
        raise ArithmeticError(f"complex fails validation: {violations[0]}")
    return c


def _complex_and_offsets(fixture: Fixture):
    if fixture.complex is not None and fixture.offsets is not None:
        return _checked_complex(fixture.complex), fixture.offsets
    if fixture.data is not None and fixture.model is not None:
        from .tropmaps import assemble_complex, enumerate_types

        types = enumerate_types(fixture.data, fixture.model)
        return assemble_complex(fixture.data, types)
    raise SchemaError(
        "$", "need either complex with offsets or data with strata"
    )


def _cmd_validate(fixture: Fixture, args) -> tuple[dict, int]:
    report: dict = {}
    ok = True
    if fixture.complex is not None:
        report["complex"] = validate_complex(fixture.complex)
        ok = ok and report["complex"]["ok"]
    if fixture.offsets is not None:
        report["offsets"] = {"ok": True, "count": len(fixture.offsets.offsets)}
    if fixture.data is not None:
        report["data"] = validate_numerical_data(fixture.data)
        ok = ok and report["data"]["ok"]
    if fixture.model is not None:
        report["strata"] = {"ok": True, "count": len(fixture.model.strata)}
    report["ok"] = ok
    return report, 0 if ok else 1


def _cmd_enumerate(fixture: Fixture, args) -> tuple[dict, int]:
    from .tropmaps import assemble_complex, enumerate_types

    _require(fixture, "data+model")
    types = enumerate_types(fixture.data, fixture.model)
    c, pd = assemble_complex(fixture.data, types)
    return {
        "complex": complex_to_json(c, pd),
        "types": types_to_json(fixture.data, types),
        "count": len(types),
    }, 0


def _cmd_refined_class(fixture: Fixture, args) -> tuple[dict, int]:
    c, pd = _complex_and_offsets(fixture)
    res = refined_class(c, pd, backend=args.backend)
    result = {
        "class": serialize(res.cls),
        "k_P": pd.k_P,
        "components": [list(comp) for comp in res.components],
    }
    if args.trace:
        result["trace"] = trace_to_json(res.trace)
    return result, 0


def _cmd_segre(fixture: Fixture, args) -> tuple[dict, int]:
    c, pd = _complex_and_offsets(fixture)
    ideal = normalized_ideal(c, pd)
    max_codim = c.dim() if args.max_codim is None else args.max_codim
    cls, trace = _segre(c, ideal, max_codim, args.backend)
    normalized = PuncturingData(
        tuple((oid, gen) for (oid, _), gen in zip(pd.offsets, ideal.generators))
    )
    result = {"class": serialize(cls), "generators": offsets_to_json(normalized)}
    if args.trace:
        result["trace"] = trace_to_json(trace)
    return result, 0


def _cmd_twisted_check(fixture: Fixture, args) -> tuple[dict, int]:
    from .gerby import (
        _checked_rooting,
        _offset_direction,
        check_pushforward_identity_on_complex,
        rooting_data,
    )

    _require(fixture, "complex+offsets")
    if (args.r is None) == (args.rooting is None):
        raise SchemaError("$", "twisted-check needs exactly one of --r or --rooting")
    if args.r is not None:
        r, s = tuple(args.r), None
    else:
        r, s = load_rooting_file(args.rooting)
    if fixture.data is not None:
        k, stated = fixture.data.k, "data has"
    else:
        # without data, k is the highest divisor an offset id names
        named = [_offset_direction(oid)[1] for oid, _ in fixture.offsets.offsets]
        k = max((j for j in named if j >= 1), default=None)
        stated = "offsets name divisors up to"
    if k is not None and len(r) != k:
        raise ValueError(
            f"need one target root per divisor direction: {stated} k = {k}, got {len(r)}"
        )
    rd = rooting_data(r, s)
    if s is not None:
        if fixture.data is None:
            raise SchemaError("$", "source roots s need a data section to check against")
        _checked_rooting(fixture.data, rd)
    report = check_pushforward_identity_on_complex(
        _checked_complex(fixture.complex), fixture.offsets, rooting_data(r),
        backend=args.backend,
    )
    return report, 0 if report["equal"] else 1


def _cmd_compare_blowup(fixture: Fixture, args) -> tuple[dict, int]:
    from .blowups import SubdivisionError, compare_under_subdivision

    _require(fixture, "complex+offsets+trace+lifted_offsets")
    c = _checked_complex(fixture.complex)
    try:
        report = compare_under_subdivision(
            c, fixture.offsets, fixture.trace, fixture.lifted_offsets
        )
    except SubdivisionError as e:
        raise SchemaError(f"$.{e.entry}", str(e)) from e
    return report, 0


def _cmd_positivize(fixture: Fixture, args) -> tuple[dict, int]:
    _require(fixture, "data")
    out = positivize(fixture.data)
    return {"input": data_to_json(fixture.data), "positivized": data_to_json(out)}, 0


def _cmd_sensitivity(fixture: Fixture, args) -> tuple[dict, int]:
    from .blowups import check_slope_sensitivity

    _require(fixture, "data+model")
    fan = load_subdivision_arg(args.subdivision, fixture.data.k)
    report = check_slope_sensitivity(fixture.data, fixture.model, fan)
    return report, 0 if report["sensitive"] else 1


_HANDLERS = {
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "refined-class": _cmd_refined_class,
    "segre": _cmd_segre,
    "twisted-check": _cmd_twisted_check,
    "compare-blowup": _cmd_compare_blowup,
    "positivize": _cmd_positivize,
    "sensitivity": _cmd_sensitivity,
}


def _refuse(line: str, code: int) -> int:
    """Print one stderr line, its line breaks escaped, and return the code."""
    print(line.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Usage errors as one line on stderr, with exit code 2."""
        self.exit(_refuse(f"error: {message}", 2))


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes its input, --threads, and only the flags it reads."""
    parser = _Parser(
        prog="punctref",
        description="Refined classes of punctured tropical map moduli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("input", help="fixture JSON file")
        if name in ("refined-class", "segre", "twisted-check"):
            p.add_argument(
                "--backend",
                choices=["resolution", "aluffi-crosscheck"],
                default="resolution",
                help="Segre-class computation backend",
            )
        if name == "segre":
            p.add_argument(
                "--max-codim",
                type=int,
                default=None,
                metavar="N",
                help="truncation codimension",
            )
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            metavar="N",
            help="accepted for interface stability; execution is sequential",
        )
        if name in ("refined-class", "segre"):
            p.add_argument(
                "--trace",
                action="store_true",
                help="include the subdivision trace in the result",
            )
        if name == "twisted-check":
            p.add_argument("--r", type=int, nargs="+", metavar="R",
                           help="rooting orders, one per divisor direction")
            p.add_argument("--rooting", metavar="FILE",
                           help="rooting JSON file with r and optional s")
        if name == "sensitivity":
            p.add_argument("--subdivision", default="trivial",
                           metavar="trivial|barycentric|FILE",
                           help="fan to test (default: trivial)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        return _refuse("error: --threads must be at least 1", 2)
    if args.command == "segre" and args.max_codim is not None and args.max_codim < 0:
        return _refuse("error: --max-codim must be nonnegative", 2)
    try:
        # the handlers read --rooting and --subdivision files themselves
        fixture, raw = load_fixture_file(args.input)
        result, code = _HANDLERS[args.command](fixture, args)
    except OSError as e:
        return _refuse(f"error: cannot read input: {e}", 2)
    except SchemaError as e:
        return _refuse(f"error: {e}", 2)
    except (
        EnumerationBoundError,
        PrincipalizationError,
        NonSmoothConeError,
        BalancingError,
        ArithmeticError,
    ) as e:
        return _refuse(f"inconsistency: {e}", 1)
    except ValueError as e:
        return _refuse(f"error: {e}", 2)
    envelope = {
        "command": args.command,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "version": __version__,
        "result": result,
    }
    print(json.dumps(envelope, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
