"""Compare the branch CSVs of two runs of the same configs, curve by curve.

    python tools/branch_curve_diff.py PARENT_DIR CHANGE_DIR

For every ``branch_*.csv`` under PARENT_DIR (searched recursively) and the
file at the same relative path under CHANGE_DIR, prints one line:

- ``rows``: the row counts, parent/change;
- ``steps``: ``same`` when the step columns have equal length and agree to
  1e-6 relative, else ``differ``;
- ``residual``: the largest value of the residual column, parent/change;
- ``q_gap``: the largest relative gap |Q - Q_p(A)| / |Q_p(A)| over the
  change's points whose amplitude A lies inside the parent's amplitude
  range, where Q_p is the cubic spline of the parent's Q against its
  amplitude, and how many points it covers.

Two runs that sample the same solution curve at other points show equal
residuals and a small ``q_gap`` with ``steps differ``.  A branch whose
amplitude is not strictly monotone has no Q(A) curve; its ``q_gap`` reads
``n/a``.  Exits 1 when a CSV of PARENT_DIR has no counterpart in
CHANGE_DIR.  Needs the standard library, numpy and scipy.
"""

import sys
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

STEP_RTOL = 1e-6


def read_branch(path):
    """The columns of a branch CSV by name."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def q_gap(parent, change):
    """(largest relative Q gap, points compared), or None without a curve."""
    amp, Q = parent["amplitude"], parent["Q"]
    if len(amp) < 2:
        return None
    if np.all(np.diff(amp) < 0):
        amp, Q = amp[::-1], Q[::-1]
    elif not np.all(np.diff(amp) > 0):
        return None
    inside = (change["amplitude"] >= amp[0]) & (change["amplitude"] <= amp[-1])
    if not inside.any():
        return 0.0, 0
    want = CubicSpline(amp, Q)(change["amplitude"][inside])
    gap = np.abs(change["Q"][inside] - want) / np.abs(want)
    return float(np.max(gap)), int(inside.sum())


def compare(parent, change):
    p_step, c_step = parent["step"], change["step"]
    same = (len(p_step) == len(c_step)
            and np.allclose(c_step, p_step, rtol=STEP_RTOL, atol=0.0))
    gap = q_gap(parent, change)
    gap_text = ("n/a" if gap is None
                else f"{gap[0]:.3e} over {gap[1]} points")
    return (f"rows {len(p_step)}/{len(c_step)} "
            f"steps {'same' if same else 'differ'} "
            f"residual {np.max(parent['residual']):.3e}/"
            f"{np.max(change['residual']):.3e} q_gap {gap_text}")


def main(argv):
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent_dir, change_dir = (Path(a) for a in argv)
    missing = 0
    for path in sorted(parent_dir.rglob("branch_*.csv")):
        rel = path.relative_to(parent_dir)
        other = change_dir / rel
        if not other.is_file():
            print(f"{rel}: missing in {change_dir}")
            missing += 1
            continue
        print(f"{rel}: {compare(read_branch(path), read_branch(other))}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
