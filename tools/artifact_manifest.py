"""Hash every artifact of the golden CLI set, one ``sha256 label`` line each.

    PYTHONPATH=src python tools/artifact_manifest.py OUTDIR [--expect DIGEST]

The set runs in process through ``stratiwave.cli.main``, inside OUTDIR
(created; it must not hold files yet), with relative paths, so two
checkouts print the same lines when their artifacts agree byte for byte:

- c64 (sigma = 1, 64^2): ``classify``, ``coeffs``, ``dispersion`` and
  ``predict`` without ``--n2`` and with ``--n2 2/3/4``; ``laminar
  --lambda 4.0``; ``branch --steps 22``;
- c64tol (c64 with a ``continuation`` block of ``newton_tol`` 1e-9 and
  ``newton_max_iter`` 8): ``branch --steps 6``, so the tolerance that
  ``continue_branch`` hands its start solves and correctors shows;
- s64 (rho = 1 - p/10, sigma = 10, 64^2): ``classify``, ``coeffs``,
  ``dispersion``, ``predict`` and ``branch --steps 12``;
- c32 (sigma = 1, 32^2): ``branch --n2 3 --steps 3`` and ``branch --n2 2
  --steps 3``;
- c512 (sigma = 1, N_p = 512): ``classify``, ``coeffs`` and ``predict``
  without ``--n2`` and with ``--n2 2/3/4``;
- t64 (table rho of the analyze-sweep workload, a four-node table beta,
  sigma = 10, 64^2): ``laminar --lambda 5.0``, ``classify`` and ``coeffs``;
- ``eulerian`` and ``verify`` on every field dump the branches wrote;
- the eight ``verify`` runs of the verify-fields benchmark workload, on
  dumps rebuilt here the way that workload prepares them (seed 3).

Every file written, every stdout and stderr (with the exit code in its
label) gets one line; every ``.field`` dump gets a second, ``<path>
[decoded]``: the sha256 of N_q and N_p (little-endian int64) and of the
float64 bits of p0, Q and h, as ``heightsolver.load_field`` returns them.
The last line is the sha256 of all lines before it.
To check that a change keeps the artifacts, run this at the parent and at
the change and diff the two outputs, or pass the parent's last line's
digest as ``--expect``: the lines are the same, and the exit code is 1
when the digest differs.  A change of the dump format alone moves the
``.field`` byte lines and leaves every ``[decoded]`` line equal.
"""

import os

# One BLAS thread, set before numpy is imported, as the benchmark runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from stratiwave import cli, heightsolver, laminar, spectral  # noqa: E402

N2_FLAGS = ((), ("--n2", "2"), ("--n2", "3"), ("--n2", "4"))
FIELD_GRIDS = (32, 64, 128)
FIELD_AMPLITUDE = 0.06
NOISE = 1e-5
NOISE_SEED = 3
TABLE_RHO = {"type": "table", "p": [-1.0, -0.5, 0.0], "v": [1.15, 1.06, 1.0]}
TABLE_BETA = {"type": "table", "p": [0.0, 0.25, 0.5, 1.0],
              "v": [0.0, 0.1, 0.05, 0.2]}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decoded_field(data: bytes) -> bytes:
    """N_q, N_p, p0, Q and h of a dump as bytes that do not depend on its
    format version."""
    hf = heightsolver.load_field(data.decode("utf-8"))
    return (np.array([hf.N_q, hf.pgrid.N_p], dtype="<i8").tobytes()
            + np.array([hf.pgrid.p0, hf.Q], dtype="<f8").tobytes()
            + np.ascontiguousarray(hf.h, dtype="<f8").tobytes())


def profile_block(profile):
    """A config's profile block: ``profile`` itself when it is one (a
    table), else the polynomial of its coefficients."""
    if isinstance(profile, dict):
        return profile
    return {"type": "poly", "coeffs": list(profile)}


def write_config(name, sigma=1.0, rho=(1.0,), beta=(0.0,), n=64,
                 continuation=None):
    """A config on [p0, 0] = [-1, 0] with g = c = 1; rho and beta are
    polynomial coefficients or table blocks."""
    doc = {"physics": {"g": 1.0, "c": 1.0, "p0": -1.0, "sigma": sigma,
                       "rho": profile_block(rho),
                       "beta": profile_block(beta)},
           "numerics": {"N_p": n, "N_q": n}}
    if continuation is not None:
        doc["continuation"] = continuation
    path = os.path.join("configs", f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    return path


class Manifest:
    def __init__(self):
        self.lines = []

    def add(self, data: bytes, label: str):
        line = f"{sha(data)} {label}"
        self.lines.append(line)
        print(line, flush=True)

    def add_file(self, data: bytes, path: str):
        """The file's bytes; for a field dump also what it decodes to."""
        self.add(data, path)
        if path.endswith(".field"):
            self.add(decoded_field(data), f"{path} [decoded]")

    def run(self, label, argv, out=None):
        """Run one command; hash its stdout, stderr and files under out."""
        if out is not None:
            argv = list(argv) + ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(list(argv))
        self.add(stdout.getvalue().encode(), f"{label} stdout exit={code}")
        self.add(stderr.getvalue().encode(), f"{label} stderr")
        if out is not None and os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    self.add_file(fh.read(), f"{out}/{name}")
        return code

    def digest(self):
        text = "".join(line + "\n" for line in self.lines)
        digest = sha(text.encode())
        print(f"{digest} manifest", flush=True)
        return digest


def analysis(man, tag, config, commands, n2_flags):
    for flags in n2_flags:
        suffix = "".join(f"-n2={v}" for v in flags[1:])
        for cmd in commands:
            man.run(f"{tag}-{cmd}{suffix}",
                    [cmd, "--config", config, *flags],
                    out=f"{tag}/{cmd}{suffix}")


def branch_set(man):
    """The branches; returns (config, --n2 flags, out dir) of each."""
    c64 = write_config("c64")
    s64 = write_config("s64", sigma=10.0, rho=(1.0, -0.1))
    c32 = write_config("c32", n=32)
    c512 = write_config("c512", n=512)
    c64tol = write_config("c64tol", continuation={"newton_tol": 1e-9,
                                                  "newton_max_iter": 8})
    analysis(man, "c64", c64, ("classify", "coeffs", "dispersion",
                               "predict"), N2_FLAGS)
    man.run("c64-laminar", ["laminar", "--config", c64, "--lambda", "4.0"],
            out="c64/laminar")
    analysis(man, "s64", s64, ("classify", "coeffs", "dispersion",
                               "predict"), N2_FLAGS[:1])
    analysis(man, "c512", c512, ("classify", "coeffs", "predict"), N2_FLAGS)
    t64 = write_config("t64", sigma=10.0, rho=TABLE_RHO, beta=TABLE_BETA)
    man.run("t64-laminar", ["laminar", "--config", t64, "--lambda", "5.0"],
            out="t64/laminar")
    analysis(man, "t64", t64, ("classify", "coeffs"), N2_FLAGS[:1])
    branches = [(c64, (), "22", "c64/branch"),
                (c64tol, (), "6", "c64tol/branch"),
                (s64, (), "12", "s64/branch"),
                (c32, ("--n2", "3"), "3", "c32/branch-n2=3"),
                (c32, ("--n2", "2"), "3", "c32/branch-n2=2")]
    for config, flags, steps, out in branches:
        man.run(out, ["branch", "--config", config, *flags, "--steps", steps],
                out=out)
    return branches


def check_dumps(man, branches):
    """``eulerian`` and ``verify`` on every dump a branch wrote."""
    for config, flags, _, out in branches:
        for name in sorted(os.listdir(out)):
            if not name.endswith(".field"):
                continue
            field = f"{out}/{name}"
            stem = field[:-len(".field")]
            man.run(f"{field} eulerian",
                    ["eulerian", "--config", config, *flags, "--field", field],
                    out=f"{stem}-eulerian")
            man.run(f"{field} verify",
                    ["verify", "--config", config, *flags, "--field", field])


def verify_fields(man):
    """The verify-fields workload's dumps and its eight ``verify`` runs:
    amplitude-frozen Newton solutions at 32^2, 64^2 and 128^2, the 64^2
    one with noise, and the four Wilton branch ends at 32^2."""
    os.makedirs("fields")
    runs = []
    for n in FIELD_GRIDS:
        config = write_config(f"strat{n}", sigma=10.0, rho=(1.0, -0.1), n=n)
        cfg = cli.load_config(config)
        physics = cfg.physics
        lam = spectral.find_lambda_star(physics, cfg.grid)
        flow = laminar.solve_laminar(physics, lam, cfg.grid)
        mode = spectral.shoot_mode(flow, physics, 1)
        germ = heightsolver.germ_field(flow, (mode, mode), (1.0, 0.0),
                                       FIELD_AMPLITUDE / mode.M[-1], n)
        sol = heightsolver.newton(physics, germ, frozen="amplitude",
                                  amplitude_target=FIELD_AMPLITUDE)
        dumps = [(f"strat{n}", sol)]
        if n == 64:
            rng = np.random.default_rng(NOISE_SEED)
            dumps.append(("corrupted64", replace(
                sol, h=sol.h + NOISE * rng.standard_normal(sol.h.shape))))
        for name, fld in dumps:
            path = f"fields/{name}.field"
            text = heightsolver.dump_field(fld)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            man.add_file(text.encode(), path)
            runs.append((f"verify-fields {name}",
                         ["verify", "--config", config, "--field", path]))
    c32 = os.path.join("configs", "c32.json")
    for k in range(4):
        runs.append((f"verify-fields wilton{k}",
                     ["verify", "--config", c32, "--n2", "3", "--field",
                      f"c32/branch-n2=3/branch_{k}_last.field"]))
    for label, argv in runs:
        man.run(label, argv)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--expect", metavar="DIGEST",
                        help="exit 1 unless the manifest digest is this")
    args = parser.parse_args(argv)
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    if os.listdir(outdir):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    os.chdir(outdir)
    os.makedirs("configs")
    man = Manifest()
    branches = branch_set(man)
    check_dumps(man, branches)
    verify_fields(man)
    digest = man.digest()
    if args.expect is not None and digest != args.expect:
        print(f"digest {digest} is not the expected {args.expect}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
