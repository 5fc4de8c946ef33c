"""Command-line front end.

Thirteen verbs covering rate evaluation, exact counting, conditional
expectations, regime classification, structure peeling, decompositions,
planted families, the checker suite, and Monte Carlo simulation. Output
is a single JSON record per invocation (CSV with --csv); every record
carries the command, its parameters, the result, the package version,
and the seed when randomness is involved.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .counting import count_hom, count_labelled, count_with_edges, expected_count
from .decompose import (
    cycle_edge_cover_avoiding,
    konig_coloring,
    matching_avoiding,
    ordered_cover,
    validate_cycle_edge_cover,
    validate_ordered_cover,
)
from .graphs import (
    Graph,
    GraphInputError,
    PatternGraph,
    SparsityContext,
    complete,
    cycle,
    parse_edge_list,
    petersen,
    validate_pattern,
)
from .independence import independence_polynomial, tilted_root
from .ratefn import (
    MAX_PLANTED_EDGES,
    Regime,
    classify_regime,
    conditional_expectation_and_gain,
    exact_conditional_expectation,
    plant,
    rate_function,
    variational_upper_bound,
)
from .structures import (
    CoreParams,
    edge_partition,
    is_core,
    is_strong_core,
    peel_to_core,
    peel_to_strong_core,
)
from .sim import mc_conditional_mean, mc_mean_count, tail_threshold, upper_tail_frequency
from .verify import report_jsonl, run_all, summary_table

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


def _emit(
    args: argparse.Namespace, command: str, parameters: dict, result: dict, seed=None
) -> None:
    """Print the record of one verb: command, parameters, result, version
    and seed."""
    record = {
        "command": command,
        "parameters": parameters,
        "result": result,
        "version": __version__,
        "seed": seed,
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


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_rate(args) -> int:
    h = _resolve_pattern(args)
    ctx = SparsityContext(args.n, args.p)
    value, regime = rate_function(h, args.delta, ctx)
    result = {"value": value, **_regime_fields(regime, h, ctx)}
    _emit(args, "rate", _params(args, "pattern", "delta", "n", "p"), result)
    return 0


def _cmd_theta(args) -> int:
    h = _resolve_pattern(args)
    theta = tilted_root(h, args.delta)
    residual = independence_polynomial(h, theta) - (1 + args.delta)
    _emit(args, "theta", _params(args, "pattern", "delta"),
          {"theta": theta, "residual": residual})
    return 0


def _cmd_count(args) -> int:
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
    _emit(args, "count", params, result)
    return 0


def _cmd_cond_exp(args) -> int:
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
    _emit(args, "cond-exp", _params(args, "pattern", "graph", "n", "p", "exact"),
          result)
    return 0


def _cmd_classify(args) -> int:
    h = _resolve_pattern(args)
    ctx = SparsityContext(args.n, args.p)
    regime = classify_regime(h, ctx)
    _emit(args, "classify", _params(args, "pattern", "n", "p"),
          _regime_fields(regime, h, ctx))
    return 0


def _core_params(args, h: PatternGraph, ctx: SparsityContext) -> CoreParams:
    return CoreParams(
        delta=args.delta,
        eps=args.eps,
        context=ctx,
        pattern=h,
        c_bar=args.c_bar,
        c_star=args.c_star,
    )


def _cmd_peel(args) -> int:
    h = _resolve_pattern(args)
    g = _load_graph(args.graph)
    ctx = SparsityContext(args.n, args.p)
    params_obj = _core_params(args, h, ctx)
    if args.strong:
        peeled = peel_to_strong_core(g, params_obj)
        witness = is_strong_core(peeled, params_obj)
    else:
        peeled = peel_to_core(g, params_obj)
        witness = is_core(peeled, params_obj)
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
    _emit(args, "peel", params, result)
    return 0


def _cmd_partition(args) -> int:
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
    _emit(args, "partition", _params(args, "graph", "degree_threshold"), result)
    return 0


def _cmd_decompose(args) -> int:
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
    _emit(args, "decompose", params, result)
    return 0


def _cmd_color(args) -> int:
    params = _params(args, "pattern", "graph")
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
    _emit(args, "color", params, result)
    return 0


def _cmd_plant(args) -> int:
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
    _emit(args, "plant", _params(args, "kind", "n", "p"), result)
    return 0


def _cmd_varbound(args) -> int:
    h = _resolve_pattern(args)
    ctx = SparsityContext(args.n, args.p)
    family = [_parse_kind(text) for text in args.candidate or []]
    for spec_text, name in ((args.clique_range, "clique"), (args.hub_range, "hub")):
        if spec_text:
            lo, _, hi = spec_text.partition(":")
            lo, hi = int(lo), int(hi)
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
    _emit(args, "varbound", params, result)
    return 0


def _cmd_verify(args) -> int:
    results = run_all(args.seed, args.trials, args.lemma)
    if not results:
        raise ValueError(f"no checker matches --lemma {args.lemma!r}")
    sys.stdout.write(summary_table(results))
    if args.jsonl:
        sys.stdout.write(report_jsonl(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_simulate(args) -> int:
    h = _resolve_pattern(args)
    params = _params(args, "pattern", "n", "p", "trials")
    if args.tail_delta is not None:
        est = upper_tail_frequency(h, args.n, args.p, args.tail_delta,
                                   args.trials, args.seed)
        params["tail_delta"] = args.tail_delta
        result = {
            "frequency": est.mean,
            "std_error": est.std_error,
            "trials": est.trials,
            "threshold": tail_threshold(h, args.n, args.p, args.tail_delta),
        }
    elif args.planted:
        g = _load_graph(args.planted)
        ctx = SparsityContext(args.n, args.p)
        est = mc_conditional_mean(g, h, ctx, args.trials, args.seed)
        params["planted"] = args.planted
        result = {
            "mean": est.mean,
            "std_error": est.std_error,
            "trials": est.trials,
            "unconditional": expected_count(h, ctx),
        }
    else:
        est = mc_mean_count(h, args.n, args.p, args.trials, args.seed)
        ctx = SparsityContext(args.n, args.p)
        result = {
            "mean": est.mean,
            "std_error": est.std_error,
            "trials": est.trials,
            "expected": expected_count(h, ctx),
        }
    _emit(args, "simulate", params, result, seed=args.seed)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_pattern_opts(sub: argparse.ArgumentParser, required: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--pattern", choices=sorted(PATTERNS))
    group.add_argument("--pattern-file", metavar="FILE")


def _add_scale_opts(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=_scale_int, required=True)
    sub.add_argument("--p", type=_positive_float, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regtail",
        description="Subgraph-count upper-tail toolkit: exact counting, "
        "rate formulas, structure extraction, and checker suites.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("rate", help="tail rate per n^2 p^D log(1/p)")
    _add_pattern_opts(sub)
    sub.add_argument("--delta", type=_positive_float, required=True)
    _add_scale_opts(sub)
    sub.set_defaults(func=_cmd_rate)

    sub = subs.add_parser("theta", help="tilted independence-polynomial root")
    _add_pattern_opts(sub)
    sub.add_argument("--delta", type=_positive_float, required=True)
    sub.set_defaults(func=_cmd_theta)

    sub = subs.add_parser("count", help="exact labelled copy count")
    _add_pattern_opts(sub)
    sub.add_argument("--graph", required=True, metavar="FILE")
    sub.add_argument("--per-edge", action="store_true")
    sub.add_argument("--hom", action="store_true",
                     help="count homomorphisms instead of injective copies")
    sub.set_defaults(func=_cmd_count)

    sub = subs.add_parser("cond-exp", help="expected copies given planted edges")
    _add_pattern_opts(sub)
    sub.add_argument("--graph", required=True, metavar="FILE")
    _add_scale_opts(sub)
    sub.add_argument("--exact", action="store_true")
    sub.add_argument("--gain", action="store_true",
                     help="also emit the first-order surplus")
    sub.set_defaults(func=_cmd_cond_exp)

    sub = subs.add_parser("classify", help="sparsity regime for (n, p)")
    _add_pattern_opts(sub)
    _add_scale_opts(sub)
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser("peel", help="iterated removal of thin edges")
    _add_pattern_opts(sub)
    sub.add_argument("--graph", required=True, metavar="FILE")
    _add_scale_opts(sub)
    sub.add_argument("--delta", type=_positive_float, required=True)
    sub.add_argument("--eps", type=_positive_float, required=True)
    sub.add_argument("--c-bar", type=_finite_float, default=0.0)
    sub.add_argument("--c-star", type=_finite_float, default=0.0)
    sub.add_argument("--strong", action="store_true")
    sub.add_argument("--emit-edges", action="store_true")
    sub.set_defaults(func=_cmd_peel)

    sub = subs.add_parser("partition", help="split edges by endpoint degrees")
    sub.add_argument("--graph", required=True, metavar="FILE")
    sub.add_argument("--degree-threshold", type=int, required=True)
    sub.set_defaults(func=_cmd_partition)

    sub = subs.add_parser("decompose", help="edge-avoiding covers of a pattern")
    _add_pattern_opts(sub)
    sub.add_argument("--mode", choices=["cycles", "ordered"], required=True)
    sub.add_argument("--edge", type=int, nargs=2, metavar=("U", "V"))
    sub.add_argument("--cherry", type=int, nargs=3, metavar=("A", "B", "C"))
    sub.set_defaults(func=_cmd_decompose)

    sub = subs.add_parser("color", help="bipartite edge coloring / clean matching")
    _add_pattern_opts(sub, required=False)
    sub.add_argument("--graph", metavar="FILE")
    sub.add_argument("--avoid", type=int, nargs=2, action="append",
                     metavar=("U", "V"))
    sub.set_defaults(func=_cmd_color)

    sub = subs.add_parser("plant", help="realize a planted structure")
    sub.add_argument("--kind", required=True,
                     help="hub:U | clique:M | bipartite:A,B | parts joined by +")
    _add_scale_opts(sub)
    sub.add_argument("--emit-edges", action="store_true")
    sub.set_defaults(func=_cmd_plant)

    sub = subs.add_parser("varbound", help="cheapest feasible planted structure")
    _add_pattern_opts(sub)
    sub.add_argument("--delta", type=_positive_float, required=True)
    _add_scale_opts(sub)
    sub.add_argument("--candidate", action="append", metavar="KIND")
    sub.add_argument("--clique-range", metavar="LO:HI")
    sub.add_argument("--hub-range", metavar="LO:HI")
    sub.set_defaults(func=_cmd_varbound)

    sub = subs.add_parser("verify", help="run the inequality checker suites")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--trials", type=int, default=0,
                     help="instance count per random suite (0 = default)")
    sub.add_argument("--lemma", default=None,
                     help="substring filter on checker keys")
    sub.add_argument("--jsonl", action="store_true",
                     help="append machine-readable JSON lines")
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("simulate", help="Monte Carlo copy-count statistics")
    _add_pattern_opts(sub)
    _add_scale_opts(sub)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tail-delta", type=_positive_float, default=None)
    sub.add_argument("--planted", metavar="FILE")
    sub.set_defaults(func=_cmd_simulate)

    for name, sub in subs.choices.items():
        if name != "verify":
            sub.add_argument("--csv", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
