"""Command-line front end.

Subcommands load JSON objects (unitaries, codes, diagonal elements), run the
corresponding library operation, and print canonical JSON (sorted keys) or a
plain table.  Exit codes follow one scheme everywhere: 0 success, 1 input
error, 2 negative result, 3 inconclusive within budget, 4 capacity exceeded.
The command group maps errors to codes once (`_exit_codes`), so each
subcommand only loads, calls the library and prints.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import click

from . import codes as C
from . import endo as E
from . import jsonio
from .capacity import CapacityError, get_limit, set_limit
from .fixtures import fixture_suite


@dataclass(frozen=True)
class RunConfig:
    """Budgets and output settings shared by every subcommand."""

    budget_depth: int
    fmt: str


def _emit(obj, fmt: str) -> None:
    if fmt == "table":
        for line in _as_table(obj):
            click.echo(line)
    else:
        click.echo(json.dumps(obj, sort_keys=True, indent=2))


def _as_table(obj, prefix: str = ""):
    """Flatten canonical JSON into stable 'path<TAB>value' rows."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _as_table(obj[key], "%s%s." % (prefix, key))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _as_table(item, "%s%d." % (prefix, i))
    else:
        yield "%s\t%s" % (prefix.rstrip("."), json.dumps(obj))


def _load(path: str) -> dict:
    with open(path) as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("JSON nesting is too deep") from None


def _exit_codes(method):
    """The one exit-code scheme, around the group's parsing and invocation,
    so around every subcommand: click's usage errors exit 1 with click's
    message; an input error exits 1, a refutation 2 and an exceeded capacity
    4, each with one stderr line.  A subcommand exits 0, 2 or 3 itself."""

    def wrapped(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise
        except CapacityError as exc:
            click.echo("capacity exceeded: %s" % exc, err=True)
            sys.exit(4)
        except C.RefutationError as exc:
            click.echo("refuted: %s" % exc, err=True)
            sys.exit(2)
        except (ArithmeticError, ValueError, KeyError, TypeError, OSError) as exc:
            click.echo("input error: %s" % exc, err=True)
            sys.exit(1)

    return wrapped


class _Main(click.Group):
    make_context = _exit_codes(click.Group.make_context)
    invoke = _exit_codes(click.Group.invoke)


@click.group(cls=_Main)
@click.option(
    "--budget-depth",
    default=8,
    show_default=True,
    help="largest inverse level certify tries; also the largest shift power m, "
    "and the widest window (at least twice the code's radius), of every search "
    "for an inverse up to sigma^m (certify, degree)",
)
@click.option("--capacity", type=int, help="index-set size limit")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "table"]),
    default="json",
    show_default=True,
)
@click.pass_context
def main(ctx, budget_depth, capacity, fmt):
    """Exact calculus of permutative endomorphisms of the shift diagonal."""
    if budget_depth < 1:
        raise click.BadParameter("--budget-depth must be at least 1")
    if capacity is not None:
        previous = get_limit()
        try:
            set_limit(capacity)
        except ValueError as exc:
            raise click.BadParameter(str(exc))
        ctx.call_on_close(lambda: set_limit(previous))
    ctx.obj = RunConfig(budget_depth, fmt)


@main.command()
@click.argument("unitary_file", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def certify(cfg: RunConfig, unitary_file):
    """Decide whether the unitary's diagonal endomorphism is an automorphism."""
    u = jsonio.unitary_from_dict(_load(unitary_file))
    e = E.endomorphism(u)
    verdict = E.certify_automorphism(e, cfg.budget_depth)
    if verdict.verdict == "automorphism":
        _, m_min = E.property_p_data(e, verdict.inverse)
        _emit(jsonio.verdict_to_dict(verdict, property_p_m=m_min), cfg.fmt)
        sys.exit(0)
    _emit(jsonio.verdict_to_dict(verdict), cfg.fmt)
    sys.exit(2 if verdict.verdict == "not_automorphism" else 3)


@main.command()
@click.argument("left_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("right_file", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def compose(cfg: RunConfig, left_file, right_file):
    """Compose two unitaries (as diagonal endomorphisms) or two codes."""
    left, right = (jsonio.operator_from_dict(_load(f)) for f in (left_file, right_file))
    if type(left) is not type(right):
        raise ValueError("cannot compose a unitary with a code")
    if isinstance(left, C.SlidingBlockCode):
        _emit(jsonio.code_to_dict(C.code_compose(left, right)), cfg.fmt)
    else:
        _emit(jsonio.unitary_to_dict(E.convolution(left, right)), cfg.fmt)


@main.command("apply")
@click.argument("operator_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("diag_file", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def apply_cmd(cfg: RunConfig, operator_file, diag_file):
    """Apply a unitary's endomorphism, or a code, to a diagonal element."""
    doc = _load(operator_file)
    x = jsonio.diag_from_dict(_load(diag_file))
    op = jsonio.operator_from_dict(doc)
    if isinstance(op, C.SlidingBlockCode):
        image = C.code_apply_diag(op, x)
    else:
        image = E.apply_diag(E.endomorphism(op), x)
    _emit(jsonio.diag_to_dict(image), cfg.fmt)


@main.command()
@click.option("--code", "code_file", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--r", "period", required=True, type=int)
@click.pass_obj
def orbits(cfg: RunConfig, code_file, period):
    """The permutation a code induces on the period-r orbits of the shift."""
    c = jsonio.code_from_dict(_load(code_file))
    if period < 1:
        raise ValueError("r must be at least 1")
    _emit(jsonio.orbit_report(c, period), cfg.fmt)


@main.command()
@click.option("--code", "code_file", required=True, type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def degree(cfg: RunConfig, code_file):
    """Constant-to-one degree of a code, via its inverse-up-to-shift partner."""
    c = jsonio.code_from_dict(_load(code_file))
    cert = C.degree_certificate(c, cfg.budget_depth)
    if cert is None:
        unknown = E.AutomorphismVerdict("unknown", budget=cfg.budget_depth)
        _emit(jsonio.verdict_to_dict(unknown), cfg.fmt)
        sys.exit(3)
    _, m, k, partner = cert
    _emit({"degree": k, "m": m, "partner_degree": partner}, cfg.fmt)


@main.command()
@click.option("--n", "n", required=True, type=int)
@click.option("--max-radius", required=True, type=int)
@click.pass_obj
def enumerate(cfg: RunConfig, n, max_radius):
    """Stream every automorphism of the one-sided n-shift up to a radius."""
    for code, inv in C.enumerate_one_sided_automorphisms(n, max_radius):
        record = {
            "code": jsonio.code_to_dict(code),
            "inverse": jsonio.code_to_dict(inv),
        }
        click.echo(json.dumps(record, sort_keys=True, separators=(",", ":")))


@main.command()
@click.pass_obj
def fixtures(cfg: RunConfig):
    """Recompute the built-in suite of known identities."""
    report = fixture_suite()
    if cfg.fmt == "table":
        for record in report:
            click.echo("%s\t%s" % (record["status"], record["check"]))
    else:
        click.echo(json.dumps(report, sort_keys=True, indent=2))
    if any(record["status"] != "pass" for record in report):
        sys.exit(2)


if __name__ == "__main__":
    main()
