"""The 26 criterion-3 center identities: the center-coordinate checks that
`test_acceptance.py` sweeps over 10 000 seeds and `test_registry.py` runs as
a subset.  `perfbench/workloads.py` and `tools/pinned_outputs.py` run
without this directory on their path and keep copies of their own, which
`test_tooling.py` holds equal to this one."""

C3_IDS = ("CE1", "CR1", "CR2", "CR3", "IN1", "IN2", "IN3", "IN4", "IN5", "IN6",
          "IN7", "OR1", "OR2", "OR3", "OR4", "OR5", "OR6", "IS2", "IS3", "IS4",
          "SY1", "SY2", "LE1", "LE2", "PM1", "PM2")
