"""Set-up of one benchmark run, in a fresh interpreter: import the package
under test and render a workload's input.  run.py times this process from
start to exit to measure `setup_s`.

    python3 perfbench/setup_probe.py monoid5|brandt15|corpus
"""

import sys

import program

program.import_path()

import workloads  # noqa: E402

workloads.render_input(sys.argv[1])
