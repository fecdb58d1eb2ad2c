"""Command-line interface: one subcommand per capability, machine-readable output.

Scalar queries print bare numbers, sweeps print CSV, and compound results
print JSON with sorted keys. Every randomized subcommand requires an explicit
seed, so identical invocations over identical files produce identical bytes.
Each subcommand imports the modules it runs, so a call loads no others.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _fail(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return 1


def _load_plan(path: str | Path):
    """Read a plan file into a ConstructionPlan, loading its code files."""
    from .construct import ConstructionPlan
    from .core import load_code

    plan_path = Path(path)
    data = json.loads(plan_path.read_text(encoding="ascii"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a plan file holds one JSON object")
    if not isinstance(data.get("outer"), str):
        raise ValueError(f"{path}: 'outer' must be a file name")
    inner_paths = data.get("inner")
    if not isinstance(inner_paths, dict) or not all(
        isinstance(inner_path, str) for inner_path in inner_paths.values()
    ):
        raise ValueError(f"{path}: 'inner' must map weights to file names")
    dbmin, q = data.get("dbmin"), data.get("q", 3)
    for key, value in (("dbmin", dbmin), ("q", q)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{path}: {key!r} must be an integer")
    base = plan_path.parent
    outer = load_code(base / data["outer"])
    inner = {
        int(weight): load_code(base / inner_path)
        for weight, inner_path in inner_paths.items()
    }
    return ConstructionPlan(outer, inner, dbmin, q)


def _cmd_capacity(args: argparse.Namespace) -> int:
    from . import channel

    if args.sweep is not None:
        if args.q != 3:
            raise ValueError("capacity sweeps cover the ternary channel only")
        start, stop = args.sweep
        rows = channel.capacity_sweep(start, stop, args.steps)
        print("p,p0_star,capacity_trits,capacity_bits")
        for p, result in rows:
            print(
                f"{p:.12g},{result.p0_star:.12g},"
                f"{result.capacity_trits:.12g},{result.capacity_bits:.12g}"
            )
        return 0
    if args.p is None:
        raise ValueError("capacity needs --p (or --sweep START STOP)")
    spec = channel.ChannelSpec(args.q, args.p)
    if args.q == 3:
        try:
            result = channel.capacity(spec)
        except ValueError:
            print(
                "warning: closed form singular at p = 2/3, using numeric search",
                file=sys.stderr,
            )
            result = channel.capacity_numeric(spec)
    else:
        result = channel.capacity_numeric(spec)
    _emit_json(
        {
            "p": spec.p,
            "q": spec.q,
            "p0_star": result.p0_star,
            "capacity_trits": result.capacity_trits,
            "capacity_bits": result.capacity_bits,
            "log_base": result.log_base,
            "method": result.method,
        }
    )
    return 0


def _cmd_pmax(args: argparse.Namespace) -> int:
    from .metric import pmax

    print(f"{pmax(args.n):.10f}")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    from .bounds import sphere_packing_bound

    if args.table:
        missing = [
            flag
            for flag, text in (("--n-list", args.n_list), ("--d-list", args.d_list))
            if not text
        ]
        if missing:
            raise ValueError(f"bound --table needs {' and '.join(missing)}")
        n_list = [int(x) for x in args.n_list.split(",")]
        d_list = [int(x) for x in args.d_list.split(",")]
        print("d," + ",".join(str(n) for n in n_list))
        for d in d_list:
            cells = [str(sphere_packing_bound(n, d)) for n in n_list]
            print(f"{d}," + ",".join(cells))
        return 0
    if args.n is None or args.d is None:
        raise ValueError("bound needs --n and --d (or --table with lists)")
    print(sphere_packing_bound(args.n, args.d))
    return 0


def _cmd_mindist(args: argparse.Namespace) -> int:
    from .core import load_code
    from .metric import min_dist_b

    code = load_code(args.code)
    print(min_dist_b(code))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .core import load_code
    from .metric import min_dist_b

    code = load_code(args.code)
    dbmin = min_dist_b(code)
    ok = dbmin >= args.d
    _emit_json({"min_dist_b": dbmin, "required": args.d, "ok": ok})
    return 0 if ok else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    from .construct import ConstructionPlan, build_code
    from .core import load_code, save_code
    from .metric import min_dist_b

    outer = load_code(args.outer)
    inner = {}
    for item in args.inner:
        weight_text, _, path = item.partition("=")
        if not path:
            raise ValueError(f"--inner expects d=FILE, got {item!r}")
        # inner codes live over the sub-alphabet q-1; plan validation checks it
        inner[int(weight_text)] = load_code(path)
    plan = ConstructionPlan(outer, inner, args.dbmin, args.q)
    code = build_code(plan)
    verified = min_dist_b(code) if code.size >= 2 else None
    if args.out:
        save_code(code, args.out)
    _emit_json(
        {"q": code.q, "n": code.n, "size": code.size, "min_dist_b": verified}
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .core import save_code
    from .search import search_code

    if args.algo == "greedy" and args.seed is None:
        raise ValueError("greedy search requires an explicit --seed")
    started = time.perf_counter()
    code, result = search_code(
        args.n,
        args.d,
        args.mode,
        wmin=args.wmin,
        wmax=args.wmax,
        algo=args.algo,
        seed=args.seed if args.seed is not None else 0,
        iterations=args.iters,
    )
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.out:
        save_code(code, args.out)
    payload = {
        "size": result.total_weight,
        "exact": result.exact,
        "members": [str(w) for w in result.members],
    }
    if args.timing:
        payload["runtime_ms"] = round(elapsed_ms, 3)
    _emit_json(payload)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .channel import ChannelSpec
    from .core import load_code
    from .decode import simulate

    code = load_code(args.code)
    spec = ChannelSpec(code.q, args.p)
    report = simulate(code, spec, args.decoder, args.trials, args.seed)
    _emit_json(
        {
            "trials": report.trials,
            "word_errors": report.word_errors,
            "undecodable": report.undecodable,
            "correct": report.correct,
            "word_error_rate": report.word_error_rate,
            "p": report.p,
            "decoder": report.decoder,
            "seed": report.seed,
        }
    )
    return 0


def _read_bits(path: str | Path) -> tuple[int, ...]:
    text = Path(path).read_text(encoding="ascii").strip()
    if any(ch not in "01" for ch in text):
        raise ValueError(f"{path}: bits files hold only '0' and '1'")
    return tuple(int(ch) for ch in text)


def _cmd_encode(args: argparse.Namespace) -> int:
    from .codec import StreamCodec

    plan = _load_plan(args.plan)
    bits = _read_bits(getattr(args, "in"))
    words = StreamCodec(plan).encode_stream(bits)
    Path(args.out).write_text(
        "".join(f"{w}\n" for w in words), encoding="ascii"
    )
    _emit_json({"blocks": len(words), "bits_in": len(bits)})
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    from .codec import StreamCodec, strip_padding
    from .core import Word

    plan = _load_plan(args.plan)
    q = plan.q
    n = plan.outer.n
    lines = Path(getattr(args, "in")).read_text(encoding="ascii").split()
    words = [Word.from_string(line, q) for line in lines]
    for w in words:
        if len(w) != n:
            raise ValueError(f"word {w} does not match block length {n}")
    raw = StreamCodec(plan).decode_stream(words)
    bits = strip_padding(raw)
    Path(args.out).write_text("".join(str(b) for b in bits) + "\n", encoding="ascii")
    _emit_json({"blocks": len(words), "bits_out": len(bits)})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternary-ecc",
        description="Channel coding toolkit for the non-symmetric ternary channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_capacity = sub.add_parser("capacity", help="channel capacity, closed form or numeric")
    p_capacity.add_argument("--p", type=float)
    p_capacity.add_argument("--q", type=int, default=3)
    p_capacity.add_argument("--sweep", type=float, nargs=2, metavar=("START", "STOP"))
    p_capacity.add_argument("--steps", type=int, default=13)
    p_capacity.set_defaults(func=_cmd_capacity)

    p_pmax = sub.add_parser("pmax", help="decoding-equivalence threshold for a length")
    p_pmax.add_argument("--n", type=int, required=True)
    p_pmax.set_defaults(func=_cmd_pmax)

    p_bound = sub.add_parser("bound", help="sphere-packing bound on code size")
    p_bound.add_argument("--n", type=int)
    p_bound.add_argument("--d", type=int)
    p_bound.add_argument("--table", action="store_true")
    p_bound.add_argument("--n-list", dest="n_list", default="")
    p_bound.add_argument("--d-list", dest="d_list", default="")
    p_bound.set_defaults(func=_cmd_bound)

    p_mind = sub.add_parser("mindist", help="minimum dist_b of a code file")
    p_mind.add_argument("--code", required=True)
    p_mind.set_defaults(func=_cmd_mindist)

    p_verify = sub.add_parser("verify", help="check a code file against a distance target")
    p_verify.add_argument("--code", required=True)
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_construct = sub.add_parser("construct", help="build a code from binary components")
    p_construct.add_argument("--outer", required=True)
    p_construct.add_argument("--inner", action="append", default=[], metavar="D=FILE")
    p_construct.add_argument("--q", type=int, default=3)
    p_construct.add_argument("--dbmin", type=int, required=True)
    p_construct.add_argument("--out")
    p_construct.set_defaults(func=_cmd_construct)

    p_search = sub.add_parser("search", help="clique-based code search")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--d", type=int, required=True)
    p_search.add_argument("--mode", choices=("unrestricted", "restricted"), required=True)
    p_search.add_argument("--wmin", type=int, default=0)
    p_search.add_argument("--wmax", type=int, default=None)
    p_search.add_argument("--algo", choices=("exact", "greedy"), default="exact")
    p_search.add_argument("--seed", type=int, default=None)
    p_search.add_argument("--iters", type=int, default=100)
    p_search.add_argument("--out")
    p_search.add_argument("--timing", action="store_true")
    p_search.set_defaults(func=_cmd_search)

    p_sim = sub.add_parser("simulate", help="Monte Carlo word-error simulation")
    p_sim.add_argument("--code", required=True)
    p_sim.add_argument("--p", type=float, required=True)
    # decode.DECODER_KINDS, spelt out so that building the parser imports no decoder
    p_sim.add_argument("--decoder", choices=("da", "ml"), required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_encode = sub.add_parser("encode", help="encode a bit stream into ternary words")
    p_encode.add_argument("--plan", required=True)
    p_encode.add_argument("--in", required=True)
    p_encode.add_argument("--out", required=True)
    p_encode.set_defaults(func=_cmd_encode)

    p_decode = sub.add_parser("decode", help="decode ternary words back into bits")
    p_decode.add_argument("--plan", required=True)
    p_decode.add_argument("--in", required=True)
    p_decode.add_argument("--out", required=True)
    p_decode.set_defaults(func=_cmd_decode)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader went away: leave quietly, with the status of a SIGPIPE death,
        # and let the interpreter's last flush go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
