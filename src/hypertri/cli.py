"""Command line surface: gen, centers, verify, render, tables.

Exit codes: 0 all checks passed, 1 at least one identity failed, 2 usage
error.  `verify --seeds` reports are JSON lines ordered by seed, written as
each seed finishes, and byte-identical across runs and across --jobs settings.
`verify --jobs N` runs the seeds on n = min(N, seed count) processes: the
command's own process takes the residue class mod n of the last seed's
index, and each other class k runs in a child made with `os.fork` (POSIX),
which sends each result down its own pipe.  Every child is stopped and
reaped before the command returns.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import ExitStack

from . import registry as rg
from .errors import GeometryError, OutOfDomain, UnknownIdentity, UsageError
from .generate import SHAPES, gen_triangle
from .plane import HPoint, angle_ext
from .registry import triangle_from_json, triangle_json


def _load_triangle(path: str):
    """The triangle of a JSON file and its ``meta.seed`` (0 when absent).
    A file that is not a triangle object raises OutOfDomain."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    t = triangle_from_json(obj)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise OutOfDomain(f"'meta' must be a JSON object, got {meta!r}")
    seed = meta.get("seed", 0)
    if type(seed) is not int:
        raise OutOfDomain(f"'meta.seed' must be an integer, got {seed!r}")
    return t, seed


def _cmd_gen(args) -> int:
    t = gen_triangle(args.seed, shape=args.shape)
    payload = json.dumps(triangle_json(t, args.seed), indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def _center_names(text: str) -> list[str]:
    """Comma list of center names; ``Mp`` and ``Hp`` spell M' and H'."""
    aliases = {"Mp": "M'", "Hp": "H'"}
    return [aliases.get(w.strip(), w.strip()) for w in text.split(",")]


def _cmd_centers(args) -> int:
    t, seed = _load_triangle(args.triangle)
    ctx = rg.TrialContext(seed=seed, t=t)
    which = None if args.which == "all" else _center_names(args.which)
    rows = rg.center_table(ctx, which=which)
    if args.table:
        print(f"{'name':6s} {'kind':10s} {'klein x':>12s} {'klein y':>12s}  notes")
        for row in rows:
            if "status" in row:
                print(f"{row['name']:6s} {'-':10s} {'-':>12s} {'-':>12s}  {row['status']}")
                continue
            p = HPoint(*row["point"]["coords"])
            kind = row["classification"]
            if kind == "real":
                kx, ky = p.klein()
                print(f"{row['name']:6s} {kind:10s} {kx:12.6f} {ky:12.6f}")
            else:
                print(f"{row['name']:6s} {kind:10s} {'-':>12s} {'-':>12s}")
        return 0
    print(json.dumps(rows, indent=2, sort_keys=True))
    return 0


def _parse_seed_range(text: str) -> range | list[int]:
    """The seeds of ``A..B`` (both ends included, as a `range`, so memory
    does not grow with the count) or of a comma list; ValueError if the text
    is malformed.  A reversed range is empty."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return [int(s) for s in text.split(",")]


def _verify_worker(job):
    seed, ids, shape, triangle = job
    rep = rg.run_suite(seed, ids=ids, shape=shape, include_centers=False,
                       triangle=triangle)
    return rep.to_jsonl(), rep.summary()


def _verify_outcome(job):
    """The (jsonl, summary) of ``job``, or the GeometryError it raised."""
    try:
        return _verify_worker(job)
    except GeometryError as e:
        return e


def _verify_stride(seeds, rest, fd):
    """Child body: pickle the outcome of each job ``(seed, *rest)`` to the
    pipe ``fd``, in order; a GeometryError is sent in place of its result and
    ends the stride."""
    import pickle
    with open(fd, "wb") as fh:
        for seed in seeds:
            result = _verify_outcome((seed, *rest))
            pickle.dump(result, fh)
            fh.flush()
            if isinstance(result, GeometryError):
                return


def _verify_results(seeds, rest, n, stack):
    """The (jsonl, summary) of each job ``(seed, *rest)``, in seed order,
    computed on n processes.  Jobs are made one seed at a time.

    The caller runs the residue class of the last seed, (len - 1) % n, so
    the children finish while it runs the final seed.  Each other class
    runs in a child forked for it, which sends its outcomes down its own
    pipe; ``stack`` closes the pipe, terminates the child and reaps it on
    every exit.  Before it waits on a child the caller computes its own next
    seed, whose result (or GeometryError) it yields at that seed's place.
    """
    if n == 1:
        for seed in seeds:
            yield _verify_worker((seed, *rest))
        return
    import pickle
    import signal
    own = (len(seeds) - 1) % n
    pipes = {}
    for k in range(n):
        if k == own:
            continue
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:   # the child never unwinds into the caller's stack
            try:
                _verify_stride(seeds[k::n], rest, w)
            finally:
                os._exit(0)
        stack.callback(os.waitpid, pid, 0)
        stack.callback(os.kill, pid, signal.SIGTERM)
        # a child that dies must leave its pipe at EOF, so the caller keeps
        # no write end open (and later children inherit none)
        os.close(w)
        pipes[k] = stack.enter_context(open(r, "rb"))
    ahead = (-1, None)   # index and outcome of the caller's next seed
    for i, seed in enumerate(seeds):
        j = i + (own - i) % n
        if ahead[0] != j:
            ahead = (j, _verify_outcome((seeds[j], *rest)))
        if j == i:
            result = ahead[1]
        else:
            try:
                result = pickle.load(pipes[i % n])
            except EOFError:
                raise RuntimeError(f"verify child for seed {seed} exited "
                                   "without a result") from None
        if isinstance(result, GeometryError):
            raise result
        yield result


def _cmd_verify(args) -> int:
    if args.triangle and args.seeds is not None:
        raise UsageError("verify takes a triangle file or --seeds, not both")
    ids = None
    if args.ids is not None:
        ids = [s.strip() for s in args.ids.split(",")]
        if not all(ids):
            raise UsageError(f"malformed --ids {args.ids!r}; expected a comma list of "
                             "identity codes")
        for identity_id in ids:
            if identity_id not in rg.REGISTRY:
                raise UnknownIdentity(f"unknown identity {identity_id!r}")
    if args.seeds is not None:
        try:
            seeds = _parse_seed_range(args.seeds)
        except ValueError:
            raise UsageError(f"malformed --seeds {args.seeds!r}; expected A..B or a comma list")
        if not seeds:
            raise UsageError(f"--seeds {args.seeds!r} names no seed; expected A..B with A <= B")
        triangle = None
    elif args.triangle:
        triangle, seed = _load_triangle(args.triangle)
        seeds = [seed]
    else:
        raise UsageError("verify needs a triangle file or --seeds")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")

    totals = {"pass": 0, "fail": 0, "skipped": 0}
    failed_seeds = []
    with ExitStack() as stack:
        out = (stack.enter_context(open(args.output, "w", encoding="utf-8"))
               if args.output else sys.stdout)
        # leaving the stack stops the children, so --fail-fast drops their seeds
        for jsonl, summary in _verify_results(seeds, (ids, args.shape, triangle),
                                              min(args.jobs, len(seeds)), stack):
            out.write(jsonl + "\n")
            for k in totals:
                totals[k] += summary[k]
            if summary["failed_ids"]:
                failed_seeds.append(summary["seed"])
                if args.fail_fast:
                    break
        out.write(json.dumps({"total": totals, "seeds_with_failures": failed_seeds},
                             separators=(",", ":")) + "\n")
    return 1 if totals["fail"] else 0


def _cmd_render(args) -> int:
    from . import render as rd   # only this command draws

    t, _seed = _load_triangle(args.triangle)
    which = (_center_names(args.centers) if args.centers != "all" else
             ["M", "O", "I", "H", "M'", "L", "S", "Z", "F"])
    rd.render_svg(t, which, args.model, args.output, euler_line=args.euler_line)
    return 0


def _cmd_tables(args) -> int:
    if not math.isfinite(args.d):
        raise UsageError(f"--d must be a finite distance, got {args.d}")
    cells = [*rg.SEGMENT_CASES, *rg.ANGLE_CASES]
    if args.case != "all" and args.case not in cells:
        raise UsageError(f"unknown case {args.case!r}")
    cases = cells if args.case == "all" else [args.case]
    takes_d = [c for c in cases if rg.case_takes_d(c)]
    takes_d_angle = [c for c in takes_d if c in rg.ANGLE_CASES]
    if takes_d_angle and not 0.0 < args.d < math.pi / 2:
        raise UsageError(f"--d must lie in (0, pi/2) for angle case {takes_d_angle[0]}, "
                         f"got {args.d}")
    if takes_d and args.d < 0:
        raise UsageError("auxiliary distance d must be >= 0")
    for case in cases:
        suffix = f" d={args.d:g}" if case in takes_d else ""
        if case in rg.SEGMENT_CASES:
            ab, ba = rg.SEGMENT_CASES[case][-1](args.d)
            print(f"{case:9s}{suffix:8s} AB = {ab}, BA = {ba}")
        else:
            a, b = angle_ext(*rg.ANGLE_CASES[case][0](args.d))
            print(f"{case:9s}{suffix:9s} angles = ({a}, {b})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``hypertri`` argument parser, built on the first call and shared
    by every later call in the process; callers must not mutate it.

    Its subcommands dispatch through ``fn`` defaults that name only the
    private ``_cmd_*`` functions, which look up everything else (such as
    ``_verify_worker`` and ``registry.run_suite``) when they run, so a
    rebinding made after the first build still takes effect.  Help text is
    wrapped when it is printed, to the terminal width of that moment.
    """
    parser = argparse.ArgumentParser(
        prog="hypertri",
        description="Hyperbolic triangle geometry: generation, centers, "
                    "identity verification, rendering, segment tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded triangle as JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shape", choices=SHAPES, default="any")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("centers", help="compute the triangle centers")
    p.add_argument("triangle", help="triangle JSON file")
    p.add_argument("--which", default="all",
                   help="comma list of center names, or 'all'")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false", default=False)
    fmt.add_argument("--table", dest="table", action="store_true")
    p.set_defaults(fn=_cmd_centers)

    p = sub.add_parser("verify", help="run the identity registry")
    p.add_argument("triangle", nargs="?", help="triangle JSON file")
    p.add_argument("--seeds", help="seed range A..B or comma list")
    p.add_argument("--shape", choices=SHAPES, default="any")
    p.add_argument("--ids", help="comma list of identity codes")
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="draw the triangle and centers as SVG")
    p.add_argument("triangle", help="triangle JSON file")
    p.add_argument("--model", choices=("klein", "poincare"), required=True)
    p.add_argument("--centers", default="all")
    p.add_argument("--euler-line", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("tables", help="print the segment/angle table dispatch")
    p.add_argument("--case", default="all",
                   help="one of " + "|".join(list(rg.SEGMENT_CASES) + list(rg.ANGLE_CASES))
                        + " or 'all'")
    p.add_argument("--d", type=float, default=0.5,
                   help="auxiliary real distance for the cases that take one; "
                        "the angle cases take 0 < d < pi/2")
    p.set_defaults(fn=_cmd_tables)
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names.  Every usage error (`UsageError`),
    every other GeometryError, an OSError and malformed JSON print one
    ``error: `` line on stderr here and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GeometryError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
