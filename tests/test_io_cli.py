"""Tests for the tensor file format and the command-line interface."""

import dataclasses
import functools
import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from teneig.cli import DEGENERATE, INPUT_ERROR, OK, main
from teneig.exact import GaussianRational
from teneig.tensorio import complex_pair, parse_tensor_json, report_to_json, sig15
from teneig.homotopy import TrackerConfig
from teneig import cli, spectra
from teneig.spectra import eigenclasses, is_positive_semidefinite
from teneig.tensor import Tensor

DIAG32 = {"m": 3, "n": 2, "encoding": "dense",
          "entries": [1, 0, 0, 0, 0, 0, 0, 1]}
FINEPRINT = {"m": 3, "n": 2, "encoding": "dense",
             "entries": [1, "i", 0, 0, 0, 0, 1, "i"]}
ONES = {"m": 3, "n": 2, "encoding": "dense", "entries": [1] * 8}
LISTED = {"m": 3, "n": 2, "encoding": "dense",
          "entries": [-1, 0, 0, -1, 1, -1, 0, "1-i"]}
JORDAN = {"m": 2, "n": 2, "encoding": "dense", "entries": [0, 1, 0, 0]}
NEGQUARTIC = {"m": 4, "n": 2, "encoding": "form",
              "entries": [{"exponents": [4, 0], "coeff": -1},
                          {"exponents": [0, 4], "coeff": -1}]}
SOSQUARTIC = {"m": 4, "n": 2, "encoding": "form",
              "entries": [{"exponents": [4, 0], "coeff": 1},
                          {"exponents": [2, 2], "coeff": 2},
                          {"exponents": [0, 4], "coeff": 1}]}


def family333():
    ent = [0] * 27
    ent[0] = 2
    for i, j, k in [(0, 1, 1), (1, 0, 1), (1, 1, 0),
                    (0, 2, 2), (2, 0, 2), (2, 2, 0)]:
        ent[i * 9 + j * 3 + k] = 1
    return {"m": 3, "n": 3, "encoding": "dense", "entries": ent}


def cremona333():
    ent = [0] * 27
    ent[0 * 9 + 0 * 3 + 1] = 1
    ent[1 * 9 + 0 * 3 + 2] = 1
    ent[2 * 9 + 1 * 3 + 2] = 2
    return {"m": 3, "n": 3, "encoding": "dense", "entries": ent}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(p)


# --------------------------------------------------------------- file format


def test_parse_dense_exact_preservation():
    lt = parse_tensor_json(json.dumps(FINEPRINT))
    assert lt.tensor.m == 3 and lt.tensor.n == 2
    assert lt.tensor.exact is not None
    assert lt.tensor.exact[1] == GaussianRational.from_string("i")
    assert lt.form is None

    # any float entry drops exactness but keeps the numeric tensor
    obj = dict(DIAG32, entries=[1.0, 0, 0, 0, 0, 0, 0, 1])
    lt2 = parse_tensor_json(json.dumps(obj))
    assert lt2.tensor.exact is None
    assert np.allclose(lt2.tensor.flat(), lt.tensor.flat() * 0 + lt2.tensor.flat())

    # [re, im] integer pairs stay exact, float pairs do not
    obj = dict(DIAG32, entries=[[1, 2], 0, 0, 0, 0, 0, 0, 1])
    assert parse_tensor_json(json.dumps(obj)).tensor.exact is not None
    obj = dict(DIAG32, entries=[[1.5, 2], 0, 0, 0, 0, 0, 0, 1])
    assert parse_tensor_json(json.dumps(obj)).tensor.exact is None


def test_parse_form_builds_symmetric_tensor():
    lt = parse_tensor_json(json.dumps(SOSQUARTIC))
    assert lt.form is not None
    assert lt.tensor.is_symmetric
    assert lt.form([1.0, 1.0]) == pytest.approx(4.0)
    # duplicate exponent records accumulate
    dup = dict(NEGQUARTIC, entries=NEGQUARTIC["entries"]
               + [{"exponents": [4, 0], "coeff": 1}])
    lt2 = parse_tensor_json(json.dumps(dup))
    assert lt2.form.coefficient((4, 0)) == 0.0


def test_parse_rejects_malformed_input():
    bad = [
        "{not json",
        json.dumps([1, 2, 3]),
        json.dumps({"m": 3, "encoding": "dense", "entries": []}),
        json.dumps({"m": 3, "n": 2, "encoding": "dense", "entries": [1] * 7}),
        json.dumps({"m": 3, "n": 2, "encoding": "dense",
                    "entries": [True] + [0] * 7}),
        json.dumps({"m": 3, "n": 2, "encoding": "dense",
                    "entries": ["2x"] + [0] * 7}),
        json.dumps({"m": 3, "n": 2, "encoding": "sparse", "entries": []}),
        json.dumps({"m": 4, "n": 2, "encoding": "form",
                    "entries": [{"exponents": [3, 0], "coeff": 1}]}),
        json.dumps({"m": 4, "n": 2, "encoding": "form", "entries": [{}]}),
        json.dumps({"m": True, "n": 2, "encoding": "dense", "entries": []}),
        json.dumps({"m": -1, "n": 0, "encoding": "dense", "entries": []}),
        json.dumps({"m": 100, "n": 2, "encoding": "dense", "entries": []}),
        # json reads NaN and Infinity; a tensor entry must be finite
        json.dumps({"m": 3, "n": 2, "encoding": "dense",
                    "entries": [float("nan")] + [0] * 7}),
        json.dumps({"m": 3, "n": 2, "encoding": "dense",
                    "entries": [[1.0, float("inf")]] + [0] * 7}),
        json.dumps({"m": 4, "n": 2, "encoding": "form",
                    "entries": [{"exponents": [4, 0],
                                 "coeff": float("nan")}]}),
    ] + [
        # exponents are a list of non-negative ints, never coerced to one
        json.dumps({"m": 4, "n": 2, "encoding": "form",
                    "entries": [{"exponents": expo, "coeff": 1}]})
        for expo in (4, [[2], [2]], [2.5, 2.5], "22", [True, 3])
    ]
    for text in bad:
        with pytest.raises(ValueError):
            parse_tensor_json(text)
    # n^m = 10^9 entries: refused before the 16 GB array is allocated
    huge = json.dumps({"m": 9, "n": 10, "encoding": "form", "entries": []})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n\\^m <="):
            parse_tensor_json(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_sig15_and_complex_pair():
    assert sig15(-0.0) == 0.0
    assert str(sig15(-0.0)) == "0.0"
    assert sig15(1 / 3) == float(f"{1/3:.15g}")
    assert complex_pair(1j) == [0.0, 1.0]
    assert complex_pair(complex(-0.0, 2.0)) == [0.0, 2.0]


def test_report_json_is_byte_stable():
    A = Tensor.from_flat(3, 2, DIAG32["entries"])
    cfg = TrackerConfig()
    s1 = report_to_json(eigenclasses(A, cfg))
    s2 = report_to_json(eigenclasses(A, TrackerConfig()))
    assert s1 == s2
    obj = json.loads(s1)
    assert obj["summary"]["m"] == 3
    assert obj["summary"]["total_multiplicity"] == 3
    assert obj["summary"]["positive_dimensional"] is False
    for c in obj["classes"]:
        assert isinstance(c["multiplicity"], int)
        assert isinstance(c["isotropic"], bool)
        assert len(c["lambda"]) == 2


# ----------------------------------------------------------------------- cli


def test_cli_count(capsys):
    assert main(["count", "6", "3"]) == OK
    assert capsys.readouterr().out.strip() == "31"
    assert main(["count", "2", "5"]) == OK
    assert capsys.readouterr().out.strip() == "5"
    assert main(["count", "3", "3"]) == OK
    assert capsys.readouterr().out.strip() == "7"
    assert main(["count", "1", "3"]) == INPUT_ERROR
    assert capsys.readouterr().err.startswith("error:")


def test_cli_eig_human(tmp_path, capsys):
    path = write(tmp_path, "diag.json", DIAG32)
    assert main(["eig", path]) == OK
    out = capsys.readouterr().out
    assert "class 0:" in out and "class 2:" in out
    assert "total multiplicity 3 / 3" in out
    assert "positive_dimensional=False" in out


def test_cli_eig_machine_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "diag.json", DIAG32)
    assert main(["eig", path, "--format", "machine"]) == OK
    first = capsys.readouterr().out
    assert main(["eig", path, "--format", "machine"]) == OK
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    assert obj["summary"]["expected_count"] == 3
    assert len(obj["classes"]) == 3


def test_cli_eig_degenerate_exit(tmp_path, capsys):
    path = write(tmp_path, "family.json", family333())
    assert main(["eig", path]) == DEGENERATE
    assert "positive_dimensional=True" in capsys.readouterr().out
    # diag(1, 1 + 1e-7): two eigenvalues too close to tell apart make one
    # degenerate cluster, and a report that is not clean exits 2
    path = write(tmp_path, "close.json", {"m": 2, "n": 2, "encoding": "dense",
                                         "entries": [1, 0, 0, 1.0000001]})
    assert main(["eig", path]) == DEGENERATE
    assert "degenerate_clusters=1" in capsys.readouterr().out


def test_cli_eig_bad_input(tmp_path, capsys):
    path = write(tmp_path, "broken.json", '{"m": 3, "n": 2, "encoding": "dense"')
    assert main(["eig", path]) == INPUT_ERROR
    assert capsys.readouterr().err.startswith("error:")
    assert main(["eig", str(tmp_path / "missing.json")]) == INPUT_ERROR
    assert capsys.readouterr().err.startswith("error:")
    path = write(tmp_path, "huge.json",
                 '{"m":9,"n":10,"encoding":"form","entries":[]}')
    assert main(["psd", path]) == INPUT_ERROR
    assert "n^m <=" in capsys.readouterr().err
    # (3,30) passes the n^m cap but has 2^30 paths to list; (7,6) would
    # ask the first stacked evaluation for 6^6 x 6^6 complex entries,
    # about 35 GB: both are refused before any path is listed
    for m, n in [(3, 30), (7, 6)]:
        path = write(tmp_path, f"wide{m}{n}.json",
                     {"m": m, "n": n, "encoding": "form", "entries": []})
        tracemalloc.start()
        try:
            assert main(["eig", path]) == INPUT_ERROR
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e7
        assert "path stack" in capsys.readouterr().err
    # exact entries beyond float range: the float array cannot hold them
    overflow = [{"m": 3, "n": 2, "encoding": "dense", "entries": [v] + [0] * 7}
                for v in (10**400, "1e400", [10**400, 0])]
    overflow.append({"m": 4, "n": 2, "encoding": "form",
                     "entries": [{"exponents": [4, 0], "coeff": "1e400"}]})
    for k, obj in enumerate(overflow):
        assert main(["eig", write(tmp_path, f"overflow{k}.json", obj)]) == INPUT_ERROR
        assert capsys.readouterr().err == "error: tensor entry beyond float range\n"


def test_cli_charpoly(tmp_path, capsys):
    path = write(tmp_path, "diag.json", DIAG32)
    assert main(["charpoly", path]) == OK
    out = capsys.readouterr().out
    assert "mu=lambda^2" in out and "degree 3" in out

    fam = write(tmp_path, "family.json", family333())
    assert main(["charpoly", fam]) == DEGENERATE
    assert "indeterminate" in capsys.readouterr().out

    assert main(["charpoly", path, "--format", "machine"]) == OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["parity"] == "mu" and obj["degree"] == 3


def test_cli_psd(tmp_path, capsys):
    neg = write(tmp_path, "neg.json", NEGQUARTIC)
    sos = write(tmp_path, "sos.json", SOSQUARTIC)
    assert main(["psd", neg]) == OK
    assert capsys.readouterr().out.strip() == "PSD: false"
    assert main(["psd", sos]) == OK
    assert capsys.readouterr().out.strip() == "PSD: true"
    # a dense file goes through form_from_tensor: x^4 - y^4 is not PSD,
    # and a tensor that is not symmetric has no form, an input error
    ent = [0] * 16
    ent[0], ent[15] = 1, -1
    sym = write(tmp_path, "sym.json",
                {"m": 4, "n": 2, "encoding": "dense", "entries": ent})
    assert main(["psd", sym]) == OK
    assert capsys.readouterr().out.strip() == "PSD: false"
    ent[1] = 1                                  # A[0,0,0,1] alone
    asym = write(tmp_path, "asym.json",
                 {"m": 4, "n": 2, "encoding": "dense", "entries": ent})
    assert main(["psd", asym]) == INPUT_ERROR
    assert "symmetric" in capsys.readouterr().err


def test_cli_psd_undecided_on_a_report_that_lost_a_path(tmp_path, capsys,
                                                        monkeypatch):
    # a lost path could hide the one negative class: no verdict, exit 2
    solve = spectra.eigenclasses
    monkeypatch.setattr(spectra, "eigenclasses", lambda A, cfg=None:
                        dataclasses.replace(solve(A, cfg), failed_paths=1))
    neg = write(tmp_path, "neg.json", NEGQUARTIC)
    with pytest.raises(RuntimeError, match="1 failed paths"):
        is_positive_semidefinite(parse_tensor_json(json.dumps(NEGQUARTIC)).form)
    assert main(["psd", neg]) == DEGENERATE
    assert capsys.readouterr().out.strip() == "PSD: undecided"
    assert main(["psd", neg, "--format", "machine"]) == DEGENERATE
    obj = json.loads(capsys.readouterr().out)
    assert obj["psd"] is None and "1 failed paths" in obj["inconclusive"]


def test_cli_singular(tmp_path, capsys):
    fp = write(tmp_path, "fineprint.json", FINEPRINT)
    assert main(["singular", fp]) == OK
    out = capsys.readouterr().out
    assert "probe: cofinite" in out
    assert "exact: singular" in out

    assert main(["singular", fp, "--format", "machine"]) == OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["probe"]["kind"] == "cofinite_complement"
    assert obj["exact"] is True
    assert [0.0, 0.0] in obj["probe"]["exceptions"]

    ones = write(tmp_path, "ones.json", ONES)
    assert main(["singular", ones]) == OK
    out = capsys.readouterr().out
    assert "probe: finite values" in out
    assert "exact: not singular" in out


def test_cli_singular_inconclusive_probe(tmp_path, capsys, monkeypatch):
    # probe trials that disagree leave no verdict: exit 2 in both formats,
    # with the exact certificate still given where it applies
    def disagree(A, trials, cfg):
        raise RuntimeError("probe trials disagree: 2/5 hits")

    monkeypatch.setattr(cli, "singular_probe", disagree)
    fp = write(tmp_path, "fineprint.json", FINEPRINT)
    assert main(["singular", fp]) == DEGENERATE
    assert capsys.readouterr().out.splitlines() == [
        "probe: inconclusive (probe trials disagree: 2/5 hits)",
        "exact: singular"]
    assert main(["singular", fp, "--format", "machine"]) == DEGENERATE
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"exact": True,
                   "probe": {"inconclusive": "probe trials disagree: 2/5 hits"}}
    inexact = write(tmp_path, "float.json", dict(ONES, entries=[0.5] + [1] * 7))
    assert main(["singular", inexact]) == DEGENERATE
    assert "exact: unavailable" in capsys.readouterr().out


def test_cli_hyperdet(tmp_path, capsys):
    ones = write(tmp_path, "ones.json", ONES)
    assert main(["hyperdet", ones]) == OK
    assert capsys.readouterr().out.strip() == "0"

    listed = write(tmp_path, "listed.json", LISTED)
    assert main(["hyperdet", listed]) == OK
    assert capsys.readouterr().out.strip() == "-1"

    inexact = write(tmp_path, "float.json",
                    dict(ONES, entries=[0.5] + [1] * 7))
    assert main(["hyperdet", inexact]) == INPUT_ERROR
    assert capsys.readouterr().err.startswith("error:")


def test_cli_dynamics(tmp_path, capsys):
    cre = write(tmp_path, "cremona.json", cremona333())
    code = main(["dynamics", cre, "--start", "1,1,1", "--kmax", "3"])
    assert code == DEGENERATE  # nilpotency undetermined
    out = capsys.readouterr().out
    assert "base locus: 3 point(s)" in out
    assert "undetermined" in out
    assert "orbit:" in out

    jor = write(tmp_path, "jordan.json", JORDAN)
    assert main(["dynamics", jor]) == OK
    assert "nilpotent (iterate 2" in capsys.readouterr().out

    assert main(["dynamics", cre, "--format", "machine"]) == DEGENERATE
    obj = json.loads(capsys.readouterr().out)
    assert obj["nilpotency"]["status"] == "undetermined"
    assert len(obj["base_locus"]) == 3

    # A x^2 = (x1^2, 0): (1 : 0) is a fixed point with eigenvalue 1 and
    # (0 : 1) the base locus; from (1 : 1) the orbit reaches the fixed
    # point, and from (0 : 1) it stops on the base locus at once
    sq = write(tmp_path, "square.json", {"m": 3, "n": 2, "encoding": "dense",
                                         "entries": [1, 0, 0, 0, 0, 0, 0, 0]})
    assert main(["dynamics", sq, "--start", "1,1"]) == OK
    out = capsys.readouterr().out
    assert "nilpotency: not nilpotent (eigenvalue 1 != 0)" in out
    assert out.splitlines()[-1] == "  -> fixed point, eigenvalue 1"
    assert main(["dynamics", sq, "--start", "0,1"]) == OK
    assert capsys.readouterr().out.splitlines()[-1] == "  -> base locus"

    assert main(["dynamics", sq, "--start", "1,1", "--format", "machine"]) == OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["nilpotency"]["status"] == "not_nilpotent"
    assert obj["nilpotency"]["witness_lambda"] == [1.0, 0.0]
    orb = obj["orbit"]
    assert (orb["fixed_point"], orb["base_locus_hit"]) == (True, False)
    assert orb["points"][-1] == [[1.0, 0.0], [0.0, 0.0]]
    assert len(orb["points"]) == 2
    assert main(["dynamics", sq, "--start", "0,1", "--format", "machine"]) == OK
    orb = json.loads(capsys.readouterr().out)["orbit"]
    assert (orb["fixed_point"], orb["base_locus_hit"]) == (False, True)
    assert orb["points"] == [[[0.0, 0.0], [1.0, 0.0]]]


def test_cli_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main(["count", "6", "3", "--output", str(target)]) == OK
    assert capsys.readouterr().out == ""
    assert target.read_text().strip() == "31"


def test_cli_seed_and_tol_flags(tmp_path, capsys):
    path = write(tmp_path, "diag.json", DIAG32)
    assert main(["eig", path, "--seed", "12345", "--tol", "1e-5"]) == OK
    out = capsys.readouterr().out
    assert "total multiplicity 3 / 3" in out


def test_perfbench_traced_names_resolve():
    # the benchmark's traced pass wraps these by name; a rename in teneig
    # would otherwise surface only as a crash of `--trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr in tracing.TRACED:
        owner = importlib.import_module(module)
        assert callable(functools.reduce(getattr, attr.split("."), owner)), \
            (module, attr)


def test_perfbench_cheap_operations_pass_their_checks(tmp_path, monkeypatch):
    # the benchmark checks every output against references that never
    # call teneig; its cheap operations, and every generic solve, run
    # here, so that an output the benchmark would reject fails this
    # suite first
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    cheap = {"generic": ("eigenclasses ",),
             "singular": ("eigenclasses isotropic ", "eigenclasses cre ",
                          "eigenclasses zero ", "eigenclasses family "),
             "commands": ("eig t32-", "eig t42-", "charpoly ", "hyperdet ",
                          "singular ", "psd ")}
    for name, prefixes in cheap.items():
        load = workloads.build(name, 1, tmp_path / name)
        ops = [op for op in load.ops if op.label.startswith(prefixes)]
        assert ops, name
        for op in ops:
            assert op.check(op.run()) is None, op.label
