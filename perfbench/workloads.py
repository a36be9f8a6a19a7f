"""Workloads: the CLI jobs of one pass and the known answer of each.

Every job is an argv for `bialgebra_forge.cli.main`. The program only
ever sees bundled names (`@corrected`) or documents this module
generated into the run's work directory. Each job carries a scorer that
reads the exit code and the `--format json` report (or the emitted
document) and compares it with a known answer whose provenance is named
next to it; none of the answers is computed by the program under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

from widegen import wide_document

# The checks of `hopf all`, in report order.
_HOPF = ("presentation-jacobi", "coproduct-hom", "coassociativity", "counit",
         "antipode", "class-f")

# Order-6 presentation-Jacobi defects pinned by tests/test_hopf.py
# (test_four_parameter_table_is_diagonal_exact_beyond_order_5); every
# higher order must still report them.
_PINNED_TRIPLES = {"p_x,p_z,l_x", "p_x,p_z,l_y", "p_y,p_z,l_y"}


@dataclass
class Job:
    name: str
    argv: list
    # (exit code, stdout) -> (matches the known answer, recorded extras)
    score: Callable


def _expect_hopf_pass(n: int):
    """All six checks pass, each over the full generator range; a tensor
    product of Hopf algebras in a rescaled basis stays a Hopf algebra
    (wide), or acceptance criterion 3 (session)."""
    counts = {"coproduct-hom": n * (n - 1) // 2, "coassociativity": n,
              "counit": 2 * n, "antipode": 2 * n, "class-f": 2 * n}

    def score(code, out):
        rep = json.loads(out)
        checks = {c["check"]: c for c in rep["checks"]}
        ok = code == 0 and rep["pass"] and tuple(checks) == _HOPF
        ok = ok and all(c["pass"] for c in checks.values())
        ok = ok and all(
            checks[name]["detail"] == f"{k} checked" for name, k in counts.items()
        )
        return ok, {}

    return score


def _score_deep(code, out):
    """Exit 1 with presentation-jacobi FAIL on (at least) the triples
    pinned at order 6; the other verdicts have no independent reference
    at orders 8 and 12, so they are recorded and not scored."""
    rep = json.loads(out)
    checks = {c["check"]: c for c in rep["checks"]}
    jac = checks.get("presentation-jacobi")
    triples = set(re.findall(r"(?:^|; )\((\w+,\w+,\w+)\):", jac["detail"])) if jac else set()
    ok = code == 1 and jac is not None and not jac["pass"] and _PINNED_TRIPLES <= triples
    unscored = {name: c["pass"] for name, c in checks.items() if name != "presentation-jacobi"}
    return ok, {"jacobi_triples": sorted(triples), "unscored": unscored}


def _expect_all_pass(code, out):
    """Acceptance criteria 1, 2, 3 and 6: every check of the bundled
    family is exactly zero at order 5."""
    rep = json.loads(out)
    ok = code == 0 and rep["pass"] and bool(rep["checks"])
    return ok and all(c["pass"] for c in rep["checks"]), {}


def _expect_tangent(mode: str):
    """The field equals its bundled expectation fixture (criterion 5)."""
    def score(code, out):
        rep = json.loads(out)
        names = [c["check"] for c in rep["checks"]]
        ok = code == 0 and rep["pass"] and names == [f"field matches expectation ({mode})"]
        return ok, {}
    return score


class _Boundary:
    """Emitted specialisations against boundary_fixtures.json, compared
    entrywise as in acceptance criterion 4. The diagonal has no fixture
    of its own: specialised further it must reproduce each diagonal
    boundary fixture (substitutions compose)."""

    def __init__(self, bf):
        self.bf = bf
        self.fixtures = bf.load_boundary_fixtures()

    def _expected(self, case, ctx):
        doc = self.fixtures[case]["document"]
        return doc.build_presentation(
            doc.make_context(order=ctx.order, cap=ctx.cap, slack=ctx.slack))

    def _emitted(self, out):
        doc = self.bf.Document.from_dict(json.loads(out))
        return doc.build_presentation(doc.make_context())

    def case(self, case):
        def score(code, out):
            if code != 0:
                return False, {}
            H = self._emitted(out)
            return self.bf.presentation_diff(H, self._expected(case, H.context)) == [], {}
        return score

    def diagonal(self, code, out):
        if code != 0:
            return False, {}
        H = self._emitted(out)
        Scalar = self.bf.Scalar
        checked = 0
        for case, body in self.fixtures.items():
            assign = body["assign"]
            if assign.get("z1") != "z" or assign.get("z2") != "z":
                continue
            rest = {k: Scalar(int(v)) for k, v in assign.items() if k not in ("z1", "z2")}
            got = self.bf.specialize(H, rest)
            if self.bf.presentation_diff(got, self._expected(case, H.context)):
                return False, {}
            checked += 1
        return checked == 3, {}


def _assign_arg(assign: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in assign.items())


class Workload:
    """Inputs, jobs and set-up of one workload for one seed."""

    name = ""

    def __init__(self, bf, seed: int, work: Path):
        self.bf = bf
        self.rng = random.Random(f"{self.name}:{seed}")

    def jobs(self, index: int) -> list:
        raise NotImplementedError

    def setup_once(self):
        """Document JSON -> context -> built presentation/tensors."""
        raise NotImplementedError

    @staticmethod
    def _bundled_json() -> dict:
        text = resources.files("bialgebra_forge").joinpath(
            "data", "six_generator_corrected.json").read_text(encoding="utf-8")
        return json.loads(text)


class Deep(Workload):
    """hopf all @corrected at orders 8 and 12; the order-12 job (the
    gate command of the integer-coefficient work) runs twice per pass so
    that the job median falls on it rather than between two clusters."""

    name = "deep"
    SETTINGS = ((8, 16), (12, 24), (12, 24))

    def __init__(self, bf, seed, work):
        super().__init__(bf, seed, work)
        self.base = self._bundled_json()

    def jobs(self, index):
        jobs = [
            Job(f"hopf-all-order{o}", ["hopf", "all", "@corrected", "--order", str(o),
                                        "--cap", str(c), "--format", "json"], _score_deep)
            for o, c in self.SETTINGS
        ]
        self.rng.shuffle(jobs)
        return jobs

    def setup_once(self):
        for order, cap in self.SETTINGS[:2]:
            doc = self.bf.Document.from_dict(self.base)
            doc.build_presentation(doc.make_context(order, cap))


class Wide(Workload):
    """hopf all on a rescaled tensor product of two @corrected copies;
    each pass gets a fresh seeded document, so one run's median covers
    several draws."""

    name = "wide"
    COPIES = 2
    DOCUMENTS = 8

    def __init__(self, bf, seed, work):
        super().__init__(bf, seed, work)
        base = self._bundled_json()
        self.docs = []
        for i in range(self.DOCUMENTS):
            data = wide_document(base, self.COPIES, self.rng.randrange(2 ** 32))
            path = work / f"wide-{i}.json"
            path.write_text(json.dumps(data, indent=1), encoding="utf-8")
            self.docs.append((path, data))
        self.score = _expect_hopf_pass(6 * self.COPIES)
        self.setups = 0

    def jobs(self, index):
        path, _ = self.docs[index % self.DOCUMENTS]
        return [Job("hopf-all-wide", ["hopf", "all", str(path), "--format", "json"],
                    self.score)]

    def setup_once(self):
        _, data = self.docs[self.setups % self.DOCUMENTS]
        self.setups += 1
        doc = self.bf.Document.from_dict(data)
        doc.build_presentation(doc.make_context())


class Session(Workload):
    """The README's command list on @corrected at order 5, shuffled per
    pass: parser-, constant-tensor- and expansion-heavy, many tiny
    polynomial operations."""

    name = "session"

    def __init__(self, bf, seed, work):
        super().__init__(bf, seed, work)
        self.base = self._bundled_json()
        self.boundary = _Boundary(bf)
        # expand and tangent act on the diagonal, produced once up front
        # by the CLI itself (the timed pass re-runs that specialisation)
        self.diag = work / "diag.json"
        self.family = work / "family.json"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = bf.cli.main(["specialize", "@corrected", "--set", "z1=z,z2=z"])
        if code != 0:
            raise RuntimeError(f"diagonal specialisation exited {code}")
        self.diag.write_text(buf.getvalue(), encoding="utf-8")
        self.tangents = json.loads(resources.files("bialgebra_forge").joinpath(
            "data", "tangent_fixtures.json").read_text(encoding="utf-8"))

    def jobs(self, index):
        fmt = ["--format", "json"]
        diag = str(self.diag)
        jobs = [
            Job("check-lie", ["check", "lie", "mu_100", "mu_001", "@corrected"] + fmt,
                _expect_all_pass),
            Job("check-colie", ["check", "colie", "@corrected"] + fmt, _expect_all_pass),
            Job("check-bialgebra", ["check", "bialgebra", "mu_100", "delta_010",
                                    "@corrected"] + fmt, _expect_all_pass),
            Job("check-four-pairs", ["check", "four-pairs", "@corrected"] + fmt,
                _expect_all_pass),
            Job("family", ["family", "@corrected", "--output", str(self.family)] + fmt,
                _expect_all_pass),
            Job("hopf-all", ["hopf", "all", "@corrected"] + fmt, _expect_hopf_pass(6)),
            Job("specialize-diagonal", ["specialize", "@corrected", "--set", "z1=z,z2=z"],
                self.boundary.diagonal),
            Job("expand", ["expand", diag, "--up-to", "2,2,2", "--roles", "t,h,z"] + fmt,
                _expect_all_pass),
        ]
        for case, body in sorted(self.boundary.fixtures.items()):
            jobs.append(Job(f"specialize-{case}", ["specialize", "@corrected", "--set",
                                                   _assign_arg(body["assign"])],
                            self.boundary.case(case)))
        for case, body in sorted(self.tangents.items()):
            argv = ["tangent", diag, "--direction", body["direction"]]
            if body["at"]:
                argv += ["--at", _assign_arg(body["at"])]
            jobs.append(Job(f"tangent-{case}", argv + ["--expect", f"@{case}"] + fmt,
                            _expect_tangent(body["mode"])))
        self.rng.shuffle(jobs)
        return jobs

    def setup_once(self):
        doc = self.bf.Document.from_dict(self.base)
        ctx = doc.make_context()
        doc.build_presentation(ctx)
        for name in sorted(doc.compositions):
            doc.composition_tensor(name, ctx)


WORKLOADS = {cls.name: cls for cls in (Deep, Wide, Session)}
