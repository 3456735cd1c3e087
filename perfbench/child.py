"""Run one hlab CLI command in this process, the way `hlab ...` runs it, and
record the moment set-up ended (when `load_config` first returned).

    python3 child.py META TRACE MODE <hlab arguments...>

META is a JSON file this writes: the set-up end on the monotonic clock,
which every process of the machine shares. TRACE is a JSONL span file to
write, or `-` to run untraced. MODE `run` runs the command; MODE `probe`
stops once the config is loaded, so the benchmark can sample set-up time
alone.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    meta_path, trace_path, mode, *hlab_argv = argv
    meta = {"setup_end": None}
    try:
        import hlab.cli as cli

        real_load_config = cli.load_config

        def load_config(path):
            cfg = real_load_config(path)
            if meta["setup_end"] is None:
                meta["setup_end"] = time.monotonic()
            return cfg

        cli.load_config = load_config
        if mode == "probe":
            cli.load_config(cli.build_arg_parser().parse_args(hlab_argv).config)
            return 0
        if trace_path == "-":
            return cli.main(hlab_argv)
        import tracer

        spans = tracer.install()
        try:
            return cli.main(hlab_argv)
        finally:
            spans.dump(trace_path)
    finally:
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
