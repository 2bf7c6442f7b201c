"""Print one SHA-256 over the outputs of a fixed, seeded set of CLI commands.

Each command runs in process through `navbound.cli.run`; the digest covers
its argv (temporary paths replaced by a placeholder), exit code, stdout and
stderr. The set is:

- `interference` on 160 seeded (PRN, power, sigma, seed, tau) cases in CSV
  and JSON, plus three that fail;
- `track` on 48 seeded two- and three-satellite geometries, by cosines and
  by elevation/azimuth, at seeded track azimuths;
- `scan` of the bundled RINEX day, CSV and JSON, at track azimuths 0, 45
  and 90 degrees;
- `hist` of each CSV series at two bin settings, CSV and JSON;
- `code` for two PRNs.

Run it on two checkouts and compare the lines to check that a change
leaves every output byte-identical:

    python tools/output_digest.py           # one line: the digest
    python tools/output_digest.py --each    # also one digest per command
    python tools/output_digest.py --fields  # the interference numbers

`--fields` prints, instead of digests, one line per `interference` case
that exits 0: its tau0, m_tau, delta_tau_bound and delta_tau_empirical
(run with JSON output, so each to full precision), then its argv. Where
a change moves these numbers, compare the two checkouts' lines field by
field.

The bits follow numpy's BLAS and the CPU, so compare runs on one machine.
"""

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from navbound import cli  # noqa: E402
from navbound.constants import CA_CODE_PERIOD  # noqa: E402

NAV = str(ROOT / "tests" / "data" / "brdc2060.13n")
SEED = 17
FIELDS = ("tau0", "m_tau", "delta_tau_bound", "delta_tau_empirical")
SITE = ["--lat", "34.75337", "--lon", "135.42783", "--height", "3.7"]


class _CurrentStderr:
    """Log to whatever sys.stderr is when a record is written, so that each
    command's warnings land in that command's captured stderr."""

    def write(self, text):
        return sys.stderr.write(text)

    def flush(self):
        sys.stderr.flush()


def _interference_cases(rng):
    for i in range(160):
        argv = ["interference", "--prn", str(1 + i % 32),
                "--power", repr(10 ** rng.uniform(-8, -2)),
                "--sigma", repr(rng.choice([0.0, 0.01, 0.05, 0.1, 0.3])),
                "--seed", str(rng.randrange(1000))]
        if i % 3:
            argv += ["--tau", repr(rng.uniform(0, CA_CODE_PERIOD) * 0.999)]
        yield argv + ["--format", "json" if i % 2 else "csv"]
    yield ["interference", "--prn", "1", "--power", "1e3"]
    yield ["interference", "--prn", "1", "--power", "1e3", "--sigma", "5"]
    yield ["interference", "--prn", "1", "--power", "1e-4", "--tau", "-1"]


def _geometries(rng):
    for i in range(48):
        sats = []
        n, start = 2 + i % 2, rng.uniform(0, 360)
        for j in range(n):
            if i % 4 < 2:
                sats.append({"sat_id": f"G{j + 1:02d}",
                             "elevation": rng.uniform(5, 85),
                             "azimuth": rng.uniform(0, 360)})
            else:
                # spread about the circle, so that most are admissible
                r = rng.uniform(0.05, 1.0)
                a = math.radians(start + j * 360 / n + rng.uniform(-50, 50))
                sats.append({"sat_id": str(j + 1), "f": r * math.cos(a),
                             "h": r * math.sin(a)})
        yield {"track_azimuth_deg": rng.uniform(0, 360), "satellites": sats}


def _cases(tmp):
    rng = random.Random(SEED)
    yield from (("", argv) for argv in _interference_cases(rng))
    for i, geometry in enumerate(_geometries(rng)):
        path = tmp / f"geometry{i}.json"
        path.write_text(json.dumps(geometry))
        yield "", ["track", "--geometry", str(path),
                   "--format", "json" if i % 2 else "csv"]
    for azimuth in ("0", "45", "90"):
        for fmt in ("csv", "json"):
            save_as = f"series{azimuth}.csv" if fmt == "csv" else ""
            yield save_as, ["scan", "--nav", NAV, *SITE, "--azimuth", azimuth,
                            "--format", fmt]
        for bins in (["--bin-width", "0.1", "--range", "1.0", "3.0"],
                     ["--bin-width", "0.05", "--range", "1.0", "5.0"]):
            for fmt in ("csv", "json"):
                yield "", ["hist", "--series", str(tmp / f"series{azimuth}.csv"),
                           *bins, "--format", fmt]
    yield "", ["code", "--prn", "7"]
    yield "", ["code", "--prn", "1", "--format", "json"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--each", action="store_true",
                        help="also print one digest per command")
    parser.add_argument("--fields", action="store_true",
                        help="print instead the four numbers of each "
                             "interference case that exits 0, then its argv")
    args = parser.parse_args()
    logging.basicConfig(stream=_CurrentStderr(), level=logging.WARNING)
    if args.fields:
        for argv in _interference_cases(random.Random(SEED)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv + ["--format", "json"])  # the last wins
            if code == 0:
                values = json.loads(out.getvalue())
                print(*(repr(values[k]) for k in FIELDS), " ".join(argv))
        return
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = pathlib.Path(tmpdir)
        for save_as, argv in _cases(tmp):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            if save_as:
                (tmp / save_as).write_text(out.getvalue())
            label = " ".join(argv).replace(tmpdir, "<tmp>").replace(str(ROOT), "<root>")
            one = hashlib.sha256(
                "\0".join([label, str(code), out.getvalue(), err.getvalue()])
                .encode()).hexdigest()
            total.update(one.encode())
            if args.each:
                print(one, code, label)
    print(total.hexdigest())


if __name__ == "__main__":
    main()
