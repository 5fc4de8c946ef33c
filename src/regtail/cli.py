"""Command-line front end.

Thirteen verbs covering rate evaluation, exact counting, conditional
expectations, regime classification, structure peeling, decompositions,
planted families, the checker suite, and Monte Carlo simulation. Every
verb but verify prints one JSON record (CSV with --csv) through _emit:
its command is the verb, then its parameters, the result, the package
version, and the verb's own --seed (null for verbs without one).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .graphs import (
    Graph,
    GraphInputError,
    PatternGraph,
    SparsityContext,
    complete,
    cycle,
    expected_count,
    parse_edge_list,
    petersen,
    validate_pattern,
)

# Every verb reads a pattern or a host, so graphs loads with the parser; each
# handler imports the rest of what it runs, and a process pays only for its
# own verb. Type checkers read this name as typing.TYPE_CHECKING, which
# would cost an import of typing here.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .ratefn import Regime

PATTERNS = {
    "k3": lambda: complete(3),
    "k4": lambda: complete(4),
    "c4": lambda: cycle(4),
    "c5": lambda: cycle(5),
    "c6": lambda: cycle(6),
    "petersen": petersen,
}


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text}")
    return value


def _scale_int(text: str) -> int:
    """Positive integer, scientific notation accepted (1e4 -> 10000)."""
    value = _finite_float(text)
    if value != int(value) or value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer scale: {text}")
    return int(value)


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphInputError(f"cannot read graph file {path}: {exc}") from exc
    return parse_edge_list(text)


def _resolve_pattern(args: argparse.Namespace) -> PatternGraph:
    if getattr(args, "pattern_file", None):
        return validate_pattern(_load_graph(args.pattern_file))
    return validate_pattern(PATTERNS[args.pattern]())


def _parse_kind(text: str) -> tuple:
    """hub:8 | clique:40 | bipartite:2,15 | clique:5+bipartite:2,3 (union)."""
    parts = []
    for chunk in text.split("+"):
        name, _, rest = chunk.partition(":")
        name = name.strip()
        try:
            sizes = tuple(int(x) for x in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise ValueError(f"bad structure sizes in {chunk!r}") from exc
        if name == "hub" and len(sizes) == 1:
            parts.append(("hub", sizes[0]))
        elif name == "clique" and len(sizes) == 1:
            parts.append(("clique", sizes[0]))
        elif name == "bipartite" and len(sizes) == 2:
            parts.append(("bipartite", sizes[0], sizes[1]))
        else:
            raise ValueError(f"unknown planted structure {chunk!r}")
    if len(parts) == 1:
        return parts[0]
    return ("union", tuple(parts))


def _scales(h: PatternGraph, ctx: SparsityContext) -> dict:
    return {
        "copies_scale": ctx.copies_scale(h),
        "edge_scale": ctx.edge_scale(h),
        "density_scale": ctx.density_scale(h),
        "log_inv_p": ctx.log_inv_p,
    }


def _regime_fields(regime: Regime, h: PatternGraph, ctx: SparsityContext) -> dict:
    return {
        "regime": regime.tag,
        "sqrt_n": regime.sqrt_n,
        "poisson_ceiling": regime.poisson_ceiling,
        **_scales(h, ctx),
    }


def _params(args: argparse.Namespace, *names: str) -> dict:
    """The record's parameters: the named options in order, where "pattern"
    is the --pattern name or else the --pattern-file path."""
    return {
        name: (args.pattern or args.pattern_file) if name == "pattern"
        else getattr(args, name)
        for name in names
    }


def _edges_out(edges) -> list[list[int]]:
    return [list(e) for e in sorted(edges)]


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        out[prefix] = value


def _csv_cell(value) -> str:
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, (list, tuple)):
        return json.dumps(value, separators=(",", ":")).replace(",", ";")
    return str(value)


def _emit(args: argparse.Namespace, parameters: dict, result: dict) -> int:
    """Print the record of one verb and return exit code 0. Its command is
    the verb and its seed the verb's own --seed (None for verbs without)."""
    record = {
        "command": args.verb,
        "parameters": parameters,
        "result": result,
        "version": __version__,
        "seed": getattr(args, "seed", None),
    }
    # strict JSON: a NaN or infinite value raises ValueError in either format
    text = json.dumps(record, allow_nan=False)
    if getattr(args, "csv", False):
        flat: dict = {}
        _flatten("", record, flat)
        keys = list(flat)
        print(",".join(keys))
        print(",".join(_csv_cell(flat[k]) for k in keys))
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_rate(args) -> int:
    from .ratefn import rate_function

    h = _resolve_pattern(args)
    ctx = SparsityContext(args.n, args.p)
    value, regime = rate_function(h, args.delta, ctx)
    result = {"value": value, **_regime_fields(regime, h, ctx)}
    return _emit(args, _params(args, "pattern", "delta", "n", "p"), result)


def _cmd_theta(args) -> int:
    from .independence import independence_polynomial, tilted_root

    h = _resolve_pattern(args)
    theta = tilted_root(h, args.delta)
    residual = independence_polynomial(h, theta) - (1 + args.delta)
    return _emit(args, _params(args, "pattern", "delta"),
                 {"theta": theta, "residual": residual})


def _cmd_count(args) -> int:
    from .counting import count_hom, count_labelled, count_with_edges

    if args.hom and args.per_edge:
        raise ValueError("--per-edge cannot be combined with --hom")
    h = _resolve_pattern(args)
    g = _load_graph(args.graph)
    params = _params(args, "pattern", "graph")
    params["mode"] = "homomorphism" if args.hom else "injective"
    if args.hom:
        result: dict = {"count": count_hom(h, g)}
    elif args.per_edge:
        report = count_with_edges(h, g)
        result = {
            "count": report.total,
            "per_edge": {f"{u},{v}": c for (u, v), c in sorted(report.per_edge.items())},
        }
    else:
        result = {"count": count_labelled(h, g)}
    return _emit(args, params, result)


def _cmd_cond_exp(args) -> int:
    from fractions import Fraction

    from .ratefn import conditional_expectation_and_gain, exact_conditional_expectation

    h = _resolve_pattern(args)
    g = _load_graph(args.graph)
    ctx = SparsityContext(args.n, args.p)
    if args.gain:
        value, gain = conditional_expectation_and_gain(g, h, ctx, exact=args.exact)
    else:
        value = exact_conditional_expectation(g, h, ctx, exact=args.exact)
    result = {"expectation": float(value), **_scales(h, ctx)}
    if args.exact:
        frac = Fraction(value)
        result["expectation_exact"] = f"{frac.numerator}/{frac.denominator}"
    if args.gain:
        result["asymptotic_gain"] = gain
    result["unconditional"] = expected_count(h, ctx)
    return _emit(args, _params(args, "pattern", "graph", "n", "p", "exact"), result)


def _cmd_classify(args) -> int:
    from .ratefn import classify_regime

    h = _resolve_pattern(args)
    ctx = SparsityContext(args.n, args.p)
    regime = classify_regime(h, ctx)
    return _emit(args, _params(args, "pattern", "n", "p"),
                 _regime_fields(regime, h, ctx))


def _cmd_peel(args) -> int:
    from .structures import CoreParams, peel

    h = _resolve_pattern(args)
    g = _load_graph(args.graph)
    params_obj = CoreParams(delta=args.delta, eps=args.eps,
                            context=SparsityContext(args.n, args.p), pattern=h,
                            c_bar=args.c_bar, c_star=args.c_star)
    peeled, witness = peel(g, params_obj, "strong-core" if args.strong else "core")
    result = {
        "edges_before": g.edge_count,
        "edges_after": peeled.edge_count,
        "removed": g.edge_count - peeled.edge_count,
        "predicate_holds": bool(witness),
        "violated_clause": witness.violated_clause,
        "degree_threshold": params_obj.degree_threshold,
    }
    if args.emit_edges:
        result["kept_edges"] = _edges_out(peeled.edges)
    params = _params(args, "pattern", "graph", "n", "p", "delta", "eps", "strong")
    return _emit(args, params, result)


def _cmd_partition(args) -> int:
    from .structures import edge_partition

    g = _load_graph(args.graph)
    part = edge_partition(g, args.degree_threshold)
    result = {
        "low_vertices": sorted(part.low_vertices),
        "e11": _edges_out(part.e11),
        "e12": _edges_out(part.e12),
        "e22": _edges_out(part.e22),
        "counts": {
            "e11": len(part.e11),
            "e12": len(part.e12),
            "e22": len(part.e22),
        },
    }
    return _emit(args, _params(args, "graph", "degree_threshold"), result)


def _cmd_decompose(args) -> int:
    from .decompose import (
        cycle_edge_cover_avoiding,
        ordered_cover,
        validate_cycle_edge_cover,
        validate_ordered_cover,
    )

    h = _resolve_pattern(args)
    if args.mode == "cycles":
        if args.edge is None:
            raise ValueError("mode 'cycles' needs --edge U V")
        e = (args.edge[0], args.edge[1])
        cover = cycle_edge_cover_avoiding(h, e)
        validate_cycle_edge_cover(cover, h, e)
        params = _params(args, "pattern", "mode", "edge")
        result = {
            "components": [
                {"kind": c.kind, "vertices": list(c.vertices)}
                for c in cover.components
            ]
        }
    else:
        if args.cherry is None:
            raise ValueError("mode 'ordered' needs --cherry A B C")
        a, b, c = args.cherry
        q = ((a, b), (b, c))
        oc = ordered_cover(h, q)
        validate_ordered_cover(oc, h, q)
        params = _params(args, "pattern", "mode", "cherry")
        result = {
            "parts": [
                {"kind": pc.kind, "vertices": list(pc.vertices)} for pc in oc.parts
            ],
            "attachments": [list(e) for e in oc.attachments],
        }
    return _emit(args, params, result)


def _cmd_color(args) -> int:
    from .decompose import konig_coloring, matching_avoiding

    params = _params(args, "pattern", "graph")
    if args.graph and params["pattern"]:
        raise ValueError("--graph cannot be combined with --pattern or --pattern-file")
    if args.graph:
        g = _load_graph(args.graph)
    elif params["pattern"]:
        g = _resolve_pattern(args)
    else:
        raise ValueError("need --graph, --pattern, or --pattern-file")
    if args.avoid:
        matching = matching_avoiding(g, [tuple(e) for e in args.avoid])
        params["avoid"] = args.avoid
        result = {"matching": _edges_out(matching)}
    else:
        coloring = konig_coloring(g)
        result = {
            "num_colors": coloring.num_colors,
            "classes": [_edges_out(cls) for cls in coloring.classes()],
        }
    return _emit(args, params, result)


def _cmd_plant(args) -> int:
    from .ratefn import plant

    ctx = SparsityContext(args.n, args.p)
    kind = _parse_kind(args.kind)
    planted = plant(kind, ctx)
    g = planted.realized
    result = {
        "descriptor": json.loads(json.dumps(planted.descriptor)),
        "edge_count": g.edge_count,
        "support_size": len(g.support()),
    }
    if args.emit_edges:
        result["edges"] = _edges_out(g.edges)
    return _emit(args, _params(args, "kind", "n", "p"), result)


def _cmd_varbound(args) -> int:
    from .ratefn import MAX_PLANTED_EDGES, variational_upper_bound

    h = _resolve_pattern(args)
    ctx = SparsityContext(args.n, args.p)
    family = [_parse_kind(text) for text in args.candidate or []]
    for spec_text, name in ((args.clique_range, "clique"), (args.hub_range, "hub")):
        if spec_text:
            lo, _, hi = spec_text.partition(":")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise ValueError(
                    f"--{name}-range takes LO:HI integers, got {spec_text!r}"
                ) from None
            # far fewer than MAX_PLANTED_EDGES sizes fit, so the cut keeps
            # the first refused size and with it the error
            hi = min(hi, lo + MAX_PLANTED_EDGES)
            family += [(name, m) for m in range(lo, hi + 1)]
    if not family:
        raise ValueError("no candidate structures given")
    cost, best = variational_upper_bound(h, args.delta, ctx, family)
    result = {
        "cost": cost,
        "argmin": json.loads(json.dumps(best.descriptor)),
        "argmin_edges": best.realized.edge_count,
        "threshold": (1 + args.delta) * ctx.copies_scale(h),
        **_scales(h, ctx),
    }
    params = _params(args, "pattern", "delta", "n", "p")
    params["candidates"] = len(family)
    return _emit(args, params, result)


def _cmd_verify(args) -> int:
    from .verify import report_jsonl, run_all, summary_table

    results = run_all(args.seed, args.trials, args.lemma)
    if not results:
        raise ValueError(f"no checker matches --lemma {args.lemma!r}")
    sys.stdout.write(summary_table(results))
    if args.jsonl:
        sys.stdout.write(report_jsonl(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_simulate(args) -> int:
    from .sim import mc_conditional_mean, mc_mean_count, tail_threshold, upper_tail_frequency

    if args.tail_delta is not None and args.planted:
        raise ValueError("--planted cannot be combined with --tail-delta")
    h = _resolve_pattern(args)
    params = _params(args, "pattern", "n", "p", "trials")
    key = "mean"
    if args.tail_delta is not None:
        key = "frequency"
        try:
            est = upper_tail_frequency(h, args.n, args.p, args.tail_delta,
                                       args.trials, args.seed)
        except OverflowError as exc:
            raise ValueError(f"--tail-delta {args.tail_delta}: {exc}") from None
        params["tail_delta"] = args.tail_delta
        extra = {"threshold": tail_threshold(h, args.n, args.p, args.tail_delta)}
    elif args.planted:
        g = _load_graph(args.planted)
        # a bad (n, p) is refused before any trial runs
        ctx = SparsityContext(args.n, args.p)
        extra = {"unconditional": expected_count(h, ctx)}
        est = mc_conditional_mean(g, h, ctx, args.trials, args.seed)
        params["planted"] = args.planted
    else:
        extra = {"expected": expected_count(h, SparsityContext(args.n, args.p))}
        est = mc_mean_count(h, args.n, args.p, args.trials, args.seed)
    result = {key: est.mean, "std_error": est.std_error, "trials": est.trials, **extra}
    return _emit(args, params, result)


# ---------------------------------------------------------------------------
# parser assembly

_FLAG = {"action": "store_true"}
_GRAPH = ("--graph", {"required": True, "metavar": "FILE"})
_DELTA = ("--delta", {"type": _positive_float, "required": True})
_EDGES = ("--emit-edges", _FLAG)

# verb -> (help, handler, options in --help order). An option is a flag with
# its add_argument keywords, "pattern" for exactly one of --pattern and
# --pattern-file, "pattern?" for at most one, or "scale" for --n and --p.
# Every verb but verify also takes --csv.
VERBS = {
    "rate": ("tail rate per n^2 p^D log(1/p)", _cmd_rate,
             ("pattern", _DELTA, "scale")),
    "theta": ("tilted independence-polynomial root", _cmd_theta,
              ("pattern", _DELTA)),
    "count": ("exact labelled copy count", _cmd_count, (
        "pattern", _GRAPH, ("--per-edge", _FLAG),
        ("--hom", {**_FLAG, "help": "count homomorphisms instead of injective copies"}),
    )),
    "cond-exp": ("expected copies given planted edges", _cmd_cond_exp, (
        "pattern", _GRAPH, "scale", ("--exact", _FLAG),
        ("--gain", {**_FLAG, "help": "also emit the first-order surplus"}),
    )),
    "classify": ("sparsity regime for (n, p)", _cmd_classify, ("pattern", "scale")),
    "peel": ("iterated removal of thin edges", _cmd_peel, (
        "pattern", _GRAPH, "scale", _DELTA,
        ("--eps", {"type": _positive_float, "required": True}),
        ("--c-bar", {"type": _finite_float, "default": 0.0}),
        ("--c-star", {"type": _finite_float, "default": 0.0}),
        ("--strong", _FLAG), _EDGES,
    )),
    "partition": ("split edges by endpoint degrees", _cmd_partition, (
        _GRAPH, ("--degree-threshold", {"type": int, "required": True}),
    )),
    "decompose": ("edge-avoiding covers of a pattern", _cmd_decompose, (
        "pattern",
        ("--mode", {"choices": ["cycles", "ordered"], "required": True}),
        ("--edge", {"type": int, "nargs": 2, "metavar": ("U", "V")}),
        ("--cherry", {"type": int, "nargs": 3, "metavar": ("A", "B", "C")}),
    )),
    "color": ("bipartite edge coloring / clean matching", _cmd_color, (
        "pattern?", ("--graph", {"metavar": "FILE"}),
        ("--avoid", {"type": int, "nargs": 2, "action": "append",
                     "metavar": ("U", "V")}),
    )),
    "plant": ("realize a planted structure", _cmd_plant, (
        ("--kind", {"required": True,
                    "help": "hub:U | clique:M | bipartite:A,B | parts joined by +"}),
        "scale", _EDGES,
    )),
    "varbound": ("cheapest feasible planted structure", _cmd_varbound, (
        "pattern", _DELTA, "scale",
        ("--candidate", {"action": "append", "metavar": "KIND"}),
        ("--clique-range", {"metavar": "LO:HI"}),
        ("--hub-range", {"metavar": "LO:HI"}),
    )),
    "verify": ("run the inequality checker suites", _cmd_verify, (
        ("--seed", {"type": int, "default": 0}),
        ("--trials", {"type": int, "default": 0,
                      "help": "instance count per random suite (0 = default)"}),
        ("--lemma", {"default": None, "help": "substring filter on checker keys"}),
        ("--jsonl", {**_FLAG, "help": "append machine-readable JSON lines"}),
    )),
    "simulate": ("Monte Carlo copy-count statistics", _cmd_simulate, (
        "pattern", "scale",
        ("--trials", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0}),
        ("--tail-delta", {"type": _positive_float, "default": None}),
        ("--planted", {"metavar": "FILE"}),
    )),
}


def _add_options(sub: argparse.ArgumentParser, verb: str) -> None:
    for option in VERBS[verb][2]:
        if option in ("pattern", "pattern?"):
            group = sub.add_mutually_exclusive_group(required=option == "pattern")
            group.add_argument("--pattern", choices=sorted(PATTERNS))
            group.add_argument("--pattern-file", metavar="FILE")
        elif option == "scale":
            sub.add_argument("--n", type=_scale_int, required=True)
            sub.add_argument("--p", type=_positive_float, required=True)
        else:
            sub.add_argument(option[0], **option[1])
    if verb != "verify":
        sub.add_argument("--csv", **_FLAG)


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The regtail parser: with a verb, only that verb's subparser, and
    with None every verb's. A one-verb parser's metavar names every verb,
    so the usage line of an error is the full parser's; the full parser
    keeps none, as its errors name the argument ``verb``."""
    parser = argparse.ArgumentParser(
        prog="regtail",
        description="Subgraph-count upper-tail toolkit: exact counting, "
        "rate formulas, structure extraction, and checker suites.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    metavar = None if verb is None else "{" + ",".join(VERBS) + "}"
    subs = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name, (help_text, _, _) in VERBS.items():
        if verb is None or verb == name:
            _add_options(subs.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a verb in first place is the one argparse runs, so only its subparser
    # is made; anything else (--help, --version, no verb or an unknown one)
    # gets them all
    verb = argv[0] if argv and argv[0] in VERBS else None
    args = build_parser(verb).parse_args(argv)
    try:
        code = VERBS[args.verb][1](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the flush at exit would fail again: send what is left nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
