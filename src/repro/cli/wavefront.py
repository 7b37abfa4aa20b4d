"""``repro wavefront`` — the wavefront extension study."""

from __future__ import annotations

import sys


def configure(sub) -> None:
    wf_p = sub.add_parser("wavefront", help="the wavefront extension")
    wf_p.add_argument("--n", type=int, default=4096)
    wf_p.add_argument("--block", type=int, default=64)
    wf_p.add_argument("--pes", type=int, default=4)
    wf_p.set_defaults(handler=_cmd_wavefront)


def _cmd_wavefront(args) -> int:
    from ..errors import PartitionError
    from ..wavefront import (
        WavefrontCase,
        run_dsc_wavefront,
        run_pipelined_wavefront,
        run_sequential_wavefront,
    )

    try:
        case = WavefrontCase(n=args.n, b=args.block, shadow=True)
        seq = run_sequential_wavefront(case, trace=False).time
        dsc = run_dsc_wavefront(case, args.pes, trace=False).time
        pipe = run_pipelined_wavefront(case, args.pes, trace=False).time
    except PartitionError as exc:   # --n, --block and --pes disagree
        print(f"wavefront: {exc}", file=sys.stderr)
        return 2
    print(f"wavefront n={args.n} block={args.block} on {args.pes} PEs")
    print(f"  sequential {seq:8.3f} s")
    print(f"  DSC        {dsc:8.3f} s  (speedup {seq / dsc:.2f})")
    print(f"  pipelined  {pipe:8.3f} s  (speedup {seq / pipe:.2f})")
    return 0
