"""Command-line front end.

Graphs are accepted as graph6 strings or edge-list text ("n; u-v, u-v").
Exit codes: 0 success, 1 computation or verification failure, an output
or checkpoint file that cannot be opened, or stdout closed by its reader
(no traceback), 2 usage. Output and checkpoint paths are opened before
any sweep or level build, so a path that cannot be written fails at once.
That creates an absent file; an existing report is not truncated until
the work is done and the report is written.

main has gc.freeze run at interpreter exit, registered once per process.
The heap then holds the tens of thousands of objects that numpy and the
package built at import. The collections that run while the interpreter
shuts down would walk them all, a fixed cost that a short sweep feels;
frozen, they are skipped. A caller that runs main in-process keeps its
heap as it was until its own exit.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import gc
import os
import sys

from .connectivity import is_biconnected, is_connected, is_theta
from .enumeration import class_codes
from .errors import AlgConnError
from .families import parse_family_text, realize
from .graphs import parse_graph_text
from .jsontext import json_text
from .rewiring import certificate_to_json, certificate_to_text, rewire
from .spectra import fiedler_vector
from .verify import verify_theorem_1, verify_theorem_2, write_csv, write_json

_PREDICATES = {"connected": is_connected, "biconnected": is_biconnected}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algconn",
        description="algebraic connectivity of small graphs: spectra, extremal "
        "families, rewiring certificates, and exhaustive verification sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="algebraic connectivity and Fiedler vector")
    p.add_argument("graph", help="graph6 or edge-list text")

    fam = sub.add_parser("families", help="family constructors")
    fam_sub = fam.add_subparsers(dest="families_command", required=True)
    p = fam_sub.add_parser("gen", help="realize a family spec as graph6")
    p.add_argument("spec", help="e.g. cycle:12, h1:n=9:i=1,3, theta:2,3,4")

    th = sub.add_parser("theta", help="theta-graph predicates")
    th_sub = th.add_subparsers(dest="theta_command", required=True)
    p = th_sub.add_parser("check", help="is the graph a theta graph")
    p.add_argument("graph")

    p = sub.add_parser("rewire", help="rewire to a spanning cycle with certificate")
    p.add_argument("graph")
    p.add_argument("--text", action="store_true", help="field-per-line instead of JSON")

    p = sub.add_parser("enumerate", help="stream non-isomorphic graphs as graph6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--predicate", choices=sorted(_PREDICATES), default="biconnected")
    p.add_argument("--out", help="write to a file instead of stdout")

    ver = sub.add_parser("verify", help="theorem verification sweeps")
    ver_sub = ver.add_subparsers(dest="verify_command", required=True)
    for name in ("t1", "t2"):
        p = ver_sub.add_parser(
            name,
            help="biconnected sweep" if name == "t1" else "theta sweep",
        )
        if name == "t1":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--checkpoint", help="JSONL row cache for resumable sweeps")
        else:
            p.add_argument("--n-max", type=int, required=True)
        p.add_argument("--json", dest="json_path", help="also write the JSON report here")
        p.add_argument("--csv", dest="csv_path", help="also write the CSV report here")
    return parser


def _cmd_alpha(args) -> int:
    g = parse_graph_text(args.graph)
    f = fiedler_vector(g)
    out = {
        "alpha": f.alpha,
        "multiplicity": f.multiplicity,
        "residual": f.residual,
        "vector": [float(x) for x in f.vector],
    }
    print(json_text(out))
    return 0


def _cmd_families(args) -> int:
    print(realize(parse_family_text(args.spec)).to_graph6())
    return 0


def _cmd_theta(args) -> int:
    g = parse_graph_text(args.graph)
    print("true" if is_theta(g) else "false")
    return 0


def _cmd_rewire(args) -> int:
    g = parse_graph_text(args.graph)
    cert = rewire(g, fiedler_vector(g))
    print(certificate_to_text(cert) if args.text else certificate_to_json(cert))
    return 0


def _check_writable(*paths) -> None:
    """Open each given path for append and close it again: a path that
    cannot be written raises OSError before any work, and the file is
    created if absent but not truncated, so a failed run leaves an
    earlier output as it was."""
    for path in filter(None, paths):
        open(path, "a").close()


def _cmd_enumerate(args) -> int:
    _check_writable(args.out)
    # a class's canonical code is its graph6 line
    codes = class_codes(args.n, _PREDICATES[args.predicate])
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(args.out, "w", encoding="ascii")) if args.out else sys.stdout
        out.writelines(code + "\n" for code in codes)
    return 0


def _cmd_verify(args) -> int:
    _check_writable(args.json_path, args.csv_path)
    # t1 writes one report object; t2 a list, one report per order
    if args.verify_command == "t1":
        data = verify_theorem_1(args.n, checkpoint=args.checkpoint)
        reports = [data]
    else:
        data = reports = verify_theorem_2(args.n_max)
    # the report streams to stdout and the --json file in one pass
    with contextlib.ExitStack() as stack:
        outs = [sys.stdout]
        if args.json_path:
            outs.append(stack.enter_context(open(args.json_path, "w", encoding="ascii")))
        write_json(data, *outs)
    if args.csv_path:
        with open(args.csv_path, "w", encoding="ascii") as fh:
            write_csv(reports, fh)
    flagged = [code for r in reports for code in r.flagged]
    if flagged:
        print(f"FLAGGED: {len(flagged)} ambiguous case(s): {flagged}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Have gc.freeze run at interpreter exit (module docstring); a
    process registers it once, however often main runs."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    args = _build_parser().parse_args(argv)
    handlers = {
        "alpha": _cmd_alpha,
        "families": _cmd_families,
        "theta": _cmd_theta,
        "rewire": _cmd_rewire,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except AlgConnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`): point stdout at devnull,
        # so that the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # an output or checkpoint file that cannot be opened or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
