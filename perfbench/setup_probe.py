"""Set-up cost of one ``timebin scan`` invocation, for the benchmark's ``setup_s``.

Interpreter start, ``import timebin.cli``, argument parsing and the config
build that ``main`` does before its first engine call, then exit.  The
benchmark times the whole process from outside:

    python3 perfbench/setup_probe.py CONFIG.json OUT.csv
"""

import sys

from timebin.cli import (
    build_experiment,
    build_parser,
    config_hash,
    effective_config_dict,
    load_config_file,
)

if __name__ == "__main__":
    args = build_parser().parse_args(["scan", "--config", sys.argv[1], "--out", sys.argv[2]])
    cfg = load_config_file(args.config)
    build_experiment(cfg, seed_override=args.seed)
    config_hash(effective_config_dict(cfg, seed_override=args.seed))
