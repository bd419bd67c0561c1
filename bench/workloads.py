"""The benchmark's workloads: inputs from a seed, one timed run, output checks.

Each workload drives the calls a user makes, through the CLI or the public
API, and checks its own output.  ``prepare`` builds the inputs (outside the
timed region), ``run`` is the timed region, ``checks`` judges the output and
``cells`` counts the (S, w) cells the run decided.

Why these three:

- ``closure-char0``: node expansion on the n=6, k=3, m=10 class of the
  contracted-closure acceptance criterion, with exact-integer Bareiss; the
  hot path of every graph build.  A 16-node family keeps a run near ten
  seconds, where the full projective-plane closures take minutes.
- ``scan-char2``: the README's conjecture scan, RP^2 plus 40 random
  complexes and two shift graphs, over the field where RP^2 shows torsion.
  Its time is GF(2^e) arithmetic, extension-field set-up, complex shifting
  and Betti ranks, with almost no integer elimination.  The seed picks the
  complexes, and with them how often the package's caches are hit, so its
  work differs from seed to seed.
- ``oracle-symbolic``: the differential oracle, symbolic against
  randomized on every permutation of length at most 9.  It exercises the
  same compound rows and rank profile over the polynomial ring, so a change
  that speeds the concrete domains but slows polynomials shows here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import shiftlab
from shiftlab import cli, shiftgraph
from shiftlab.combstruct import SimplicialComplex, is_shifted
from shiftlab.symgroup import all_permutations

RP2_FACETS = (
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 6),
    (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 5, 6), (4, 5, 6),
)

# A family in the closure of the RP^2 top layer with a small closure.
CLOSURE_START = (
    (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5),
    (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 4, 5), (4, 5, 6),
)
CLOSURE_NODES = 16
CLOSURE_ARROWS = 74
CLOSURE_CLASSES = 3
# sha256 of the contracted export; the same for every seed.
CLOSURE_EXPORT_SHA256 = "13e1679eb7537f22efe16cacdee30e8d481a261155b4bdd6390723d9169b6202"

SCAN_RANDOM = 40
SCAN_RANDOM_N = 5  # the CLI default for --random-n
SCAN_GRAPHS = ((4, 2, 2), (4, 2, 3))

ORACLE_MAX_LENGTH = 9
ORACLE_CELLS = 551
# sha256 of the symbolic shifts, which do not depend on the seed.
ORACLE_SYMBOLIC_SHA256 = "c9f45990cb25d0a73a92dff413665cc4205a19f313ecc6c3da483acd7f813b5d"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ClosureChar0:
    name = "closure-char0"

    def prepare(self, seed: int, workdir: Path) -> dict:
        start = workdir / "start.json"
        start.write_text(
            json.dumps({"n": 6, "k": 3, "edges": [list(e) for e in CLOSURE_START]}),
            encoding="utf-8",
        )
        return {"start": start, "seed": seed}

    def run(self, inputs: dict) -> dict:
        """``psg --from START --contract`` through the API, plus acyclicity."""
        text = inputs["start"].read_text(encoding="utf-8")
        S = shiftlab.hypergraph_from_json(text)
        ctx = shiftlab.make_field_context(0, shiftlab.Backend.RANDOMIZED, seed=inputs["seed"])
        graph = shiftgraph.build_shift_graph_from(S, ctx)
        contracted = shiftgraph.contract(graph, ctx)
        acyclic, _ = shiftgraph.is_acyclic(contracted)
        export = shiftgraph.export_json(contracted)
        return {"graph": graph, "classes": len(contracted.nodes), "acyclic": acyclic, "export": export}

    def digest(self, out: dict) -> str:
        return sha256(out["export"])

    def cells(self, out: dict) -> int:
        return len(out["graph"].nodes) * (math.factorial(6) - 1)

    def checks(self, out: dict) -> list[tuple[str, bool]]:
        graph = out["graph"]
        try:
            sinks_shifted = all(is_shifted(T) for T in shiftgraph.sinks(graph))
        except shiftlab.InternalError:
            sinks_shifted = False
        return [
            ("closure nodes", len(graph.nodes) == CLOSURE_NODES),
            ("closure arrows", graph.edge_count == CLOSURE_ARROWS),
            ("contracted classes", out["classes"] == CLOSURE_CLASSES),
            ("contracted graph acyclic", out["acyclic"]),
            ("every sink shifted", sinks_shifted),
            ("export digest", self.digest(out) == CLOSURE_EXPORT_SHA256),
        ]


class ScanChar2:
    name = "scan-char2"

    def prepare(self, seed: int, workdir: Path) -> dict:
        rp2 = workdir / "rp2.json"
        rp2.write_text(
            json.dumps({"n": 6, "facets": [list(f) for f in RP2_FACETS]}), encoding="utf-8"
        )
        argv = ["scan", str(rp2), "--random", str(SCAN_RANDOM), "--char", "2", "--seed", str(seed)]
        for n, k, m in SCAN_GRAPHS:
            argv += ["--graph", f"{n},{k},{m}"]
        return {"argv": argv}

    def run(self, inputs: dict) -> dict:
        """``shiftlab scan RP2 --random 40 --graph 4,2,2 --graph 4,2,3 --char 2``."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(inputs["argv"])
        return {"code": code, "stdout": buf.getvalue()}

    def digest(self, out: dict) -> str:
        return sha256(out["stdout"])

    def cells(self, out: dict) -> int:
        report = json.loads(out["stdout"])
        total = 0
        for c in report["complexes"]:
            layers = max(len(f) for f in c["facets"])
            total += (c["permutations_checked"] - 1) * layers
        for n, k, m in SCAN_GRAPHS:
            total += math.comb(math.comb(n, k), m) * (math.factorial(n) - 1)
        return total

    def checks(self, out: dict) -> list[tuple[str, bool]]:
        if out["code"] != 0:
            return [("scan exit code", False)]
        report = json.loads(out["stdout"])
        complexes = report["complexes"]
        checked = [c["permutations_checked"] for c in complexes]
        expected = [math.factorial(6)] + [math.factorial(SCAN_RANDOM_N)] * SCAN_RANDOM
        return [
            ("scan exit code", True),
            ("complexes scanned", len(complexes) == 1 + SCAN_RANDOM),
            ("permutations checked is n!", checked == expected),
            ("no monotonicity violations", not any(c["violations"] for c in complexes)),
            ("graphs scanned", [(g["n"], g["k"], g["m"]) for g in report["graphs"]] == list(SCAN_GRAPHS)),
            ("graphs acyclic", all(g["acyclic"] for g in report["graphs"])),
        ]


class OracleSymbolic:
    name = "oracle-symbolic"

    def prepare(self, seed: int, workdir: Path) -> dict:
        top = SimplicialComplex.from_facets(6, RP2_FACETS).layer(2)
        perms = [w for w in all_permutations(6) if w.length() <= ORACLE_MAX_LENGTH]
        return {
            "top": top,
            "perms": perms,
            "symbolic": shiftlab.make_field_context(0, shiftlab.Backend.SYMBOLIC),
            "randomized": shiftlab.make_field_context(0, shiftlab.Backend.RANDOMIZED, seed=seed),
        }

    def run(self, inputs: dict) -> dict:
        """Shift the RP^2 top layer by every cell on both backends."""
        top, perms = inputs["top"], inputs["perms"]
        return {
            side: [shiftlab.partial_shift(top, w, inputs[side]) for w in perms]
            for side in ("symbolic", "randomized")
        }

    def digest(self, out: dict) -> str:
        return sha256(json.dumps([T.edge_lists() for T in out["symbolic"]]))

    def cells(self, out: dict) -> int:
        return len(out["symbolic"]) + len(out["randomized"])

    def checks(self, out: dict) -> list[tuple[str, bool]]:
        sym, rnd = out["symbolic"], out["randomized"]
        return [
            ("cells per backend", len(sym) == len(rnd) == ORACLE_CELLS),
            ("symbolic equals randomized", sym == rnd),
            ("symbolic digest", self.digest(out) == ORACLE_SYMBOLIC_SHA256),
        ]


WORKLOADS = {w.name: w for w in (ClosureChar0(), ScanChar2(), OracleSymbolic())}
