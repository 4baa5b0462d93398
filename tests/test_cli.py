import json
import subprocess
import sys

import numpy as np
import pytest

from polarkit import cli, forms, gf, group, polar


def run_cli(*argv):
    """Invoke main() in process, capturing stdout lines and the exit code."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_space_summary():
    code, out, _ = run_cli("space", "--kind", "Q", "--dim", "6", "--q", "3")
    assert code == 0
    assert "r=3" in out and "theta=28" in out and "points=364" in out


def test_space_json():
    code, out, _ = run_cli("space", "--kind", "W", "--dim", "3", "--q", "3",
                           "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["points"] == 40 and rec["r"] == 2


@pytest.mark.parametrize("kind,dim", [("W", "-1"), ("Q+", "-1"), ("Q", "-2")])
def test_space_rejects_nonpositive_dimension(kind, dim):
    code, out, err = run_cli("space", "--kind", kind, "--dim", dim, "--q", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: projective dimension") and "negative" in err


def test_space_rejects_a_field_over_the_table_cap():
    code, out, err = run_cli("space", "--kind", "W", "--dim", "1", "--q", "131072")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "table backend" in err


def test_space_rejects_an_oversized_scan():
    """Q(2,65521) passes POINT_CAP with 65,522 points, but its scan would
    cover q^2 + q + 1 projective points."""
    code, out, err = run_cli("space", "--kind", "Q", "--dim", "2", "--q", "65521")
    assert code == 2 and out == ""
    assert err == ("error: space too large: scanning 4293066963 projective "
                   "points exceeds cap 100000000\n")


def test_space_even_q_sign_needs_no_scan():
    """The sign of an even-q quadratic form is its Arf invariant, so Q+(21,2)
    reaches the point cap instead of a sign-scan limit."""
    code, out, err = run_cli("space", "--kind", "Q+", "--dim", "21", "--q", "2")
    assert code == 2 and out == ""
    assert err == "error: space too large: 2098175 points exceeds cap 2000000\n"


def test_space_grid_refused_and_allowed():
    code, _, err = run_cli("space", "--kind", "Q+", "--dim", "3", "--q", "4")
    assert code == 2 and "grid" in err
    code, out, _ = run_cli("space", "--kind", "Q+", "--dim", "3", "--q", "4",
                           "--allow-grid")
    assert code == 0 and "points=25" in out


def test_space_bad_kind():
    code, _, err = run_cli("space", "--kind", "Z", "--dim", "4", "--q", "3")
    assert code == 2 and "error:" in err


def test_orbits_with_generator_file(tmp_path, w33):
    gens = group.classical_generators("Sp", 4, w33.field)
    path = tmp_path / "sp43.json"
    gens.save(path)
    code, out, _ = run_cli("orbits", "--kind", "W", "--dim", "3", "--q", "3",
                           "--gens", str(path))
    assert code == 0
    assert "size=40" in out and "tight_i=10" in out


def test_orbits_empty_generator_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, out, _ = run_cli("orbits", "--kind", "W", "--dim", "3", "--q", "3",
                           "--gens", str(path))
    assert code == 0
    assert "orbits=40" in out


def test_orbits_explicit_empty_generator_list(tmp_path):
    """An explicit "generators": [] is the trivial group too, with or
    without the field header."""
    for data in ({"generators": []}, {"q": 3, "d": 4, "generators": []}):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli("orbits", "--kind", "W", "--dim", "3", "--q", "3",
                               "--gens", str(path))
        assert code == 0
        assert "orbits=40" in out


@pytest.mark.parametrize("header", [
    {"q": True, "d": 4}, {"q": 4, "d": 9}, {"q": 3, "d": 5}, {"q": 9, "d": 4},
    {"q": 3, "d": 4.0}, {"q": "3", "d": 4}, {"q": 3, "d": None}])
def test_orbits_empty_generator_list_checks_its_header(tmp_path, header):
    """A header next to "generators": [] must name the space's q and d as
    plain ints, as it must next to a nonempty list."""
    path = tmp_path / "empty.json"
    for gens in ([], [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]):
        path.write_text(json.dumps({**header, "generators": gens}))
        code, out, err = run_cli("orbits", "--kind", "W", "--dim", "3",
                                 "--q", "3", "--gens", str(path))
        assert (code, out) == (2, ""), gens
        assert err.startswith("error: ")


def test_orbits_hand_written_file(tmp_path):
    # bare matrices with int codes, no sigma_power wrapper
    g = [[0, 0, 1, 0], [0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1]]
    path = tmp_path / "hand.json"
    path.write_text(json.dumps({"q": 3, "d": 4, "generators": [g]}))
    code, out, _ = run_cli("orbits", "--kind", "W", "--dim", "3", "--q", "3",
                           "--gens", str(path))
    assert code == 0
    assert "orbits=" in out


def test_orbits_rejects_out_of_range_code(tmp_path):
    g = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 7, 0], [0, 0, 0, 1]]
    path = tmp_path / "range.json"
    path.write_text(json.dumps({"q": 3, "d": 4, "generators": [g]}))
    code, _, err = run_cli("orbits", "--kind", "W", "--dim", "3", "--q", "3",
                           "--gens", str(path))
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("entry,sigma,message", [
    (1.5, 0, "generator 1: matrix entry (2, 2) 1.5 is not an int"),
    (-1, 0, "generator 1: matrix entry (2, 2) = -1 is out of range for q=3"),
    ([4], 0, "generator 1: coefficient list [4] is not a list of ints in range(3)"),
    (1, "x", "generator 1: sigma_power 'x' is not an int"),
    (True, 0, "generator 1: matrix entry (2, 2) True is a bool, not an int"),
    ([True], 0, "generator 1: coefficient list [True] is not a list of ints "
                "in range(3)"),
    (1, False, "generator 1: sigma_power False is a bool, not an int"),
])
def test_orbits_names_the_generator_and_entry_it_refuses(tmp_path, entry, sigma,
                                                         message):
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    bad = [row[:] for row in ident]
    bad[2][2] = entry
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"q": 3, "d": 4, "generators": [
        ident, {"matrix": bad, "sigma_power": sigma}]}))
    code, out, err = run_cli("orbits", "--kind", "W", "--dim", "3", "--q", "3",
                             "--gens", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("data,message", [
    ({"generators": 5}, "generator data has no 'q' entry"),
    ({"q": 3, "d": 4, "generators": 5}, "'generators' is not a list"),
    ({"q": 3, "d": 4, "generators": [{"sigma_power": 0}]},
     "generator 0: no 'matrix' entry"),
    ({"q": 3, "d": 4, "generators": [7]}, "generator 0: no 'matrix' entry"),
    (7, "generator file is not a JSON object or list"),
    ({"indices": 5}, "generator data has no 'generators' entry"),
    ({"q": 3, "d": 4}, "generator data has no 'generators' entry"),
    ({"q": 3, "d": 4, "generators": None}, "'generators' is not a list"),
    ({"q": "3", "d": 4, "generators": [[[1]]]}, "header entry 'q' '3' is not an int"),
    ({"q": 3.0, "d": 4, "generators": [[[1]]]}, "header entry 'q' 3.0 is not an int"),
    ({"q": True, "d": 4, "generators": [[[1]]]},
     "header entry 'q' True is a bool, not an int"),
    ({"q": 3, "d": "4", "generators": [[[1]]]}, "header entry 'd' '4' is not an int"),
    ({"q": 3, "d": 4.0, "generators": [[[1]]]}, "header entry 'd' 4.0 is not an int"),
    ({"q": 3, "d": False, "generators": [[[1]]]},
     "header entry 'd' False is a bool, not an int"),
])
def test_orbits_names_what_a_malformed_file_lacks(tmp_path, data, message):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli("orbits", "--kind", "W", "--dim", "3", "--q", "3",
                             "--gens", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("generators,message", [
    ([{"matrix": [1, 2, 3, 4]}], "generator 0: matrix row 0 is 1, not a list"),
    ([{"matrix": "abcd"}], "generator 0: 'matrix' is not a list of rows"),
    ([[[1, 0, 0, 0], "0100", [0, 0, 1, 0], [0, 0, 0, 1]]],
     "generator 0: matrix row 1 is '0100', not a list"),
])
def test_orbits_refuses_a_matrix_that_is_not_a_list_of_rows(tmp_path, generators,
                                                           message):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"q": 3, "d": 4, "generators": generators}))
    code, out, err = run_cli("orbits", "--kind", "W", "--dim", "3", "--q", "3",
                             "--gens", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_orbits_rejects_corrupted_generator(tmp_path, w33):
    gens = group.classical_generators("Sp", 4, w33.field, self_check=False)
    data = gens.serialize()
    cell = data["generators"][0]["matrix"][0][0]
    data["generators"][0]["matrix"][0][0] = [(cell[0] + 1) % 3]  # break invariance
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli("orbits", "--kind", "W", "--dim", "3", "--q", "3",
                           "--gens", str(path))
    assert code == 2
    assert "rejected" in err


def test_orbits_missing_file():
    code, _, err = run_cli("orbits", "--kind", "W", "--dim", "3", "--q", "3",
                           "--gens", "/no/such/file.json")
    assert code == 2 and "error:" in err


def test_classify_set_file(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(list(range(20))))
    code, out, _ = run_cli("classify", "--kind", "W", "--dim", "3", "--q", "3",
                           "--set", str(path))
    assert code == 0
    assert "intriguing=no" in out or "h1=None" in out


def test_classify_full_set(tmp_path):
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"indices": list(range(40))}))
    code, out, _ = run_cli("classify", "--kind", "W", "--dim", "3", "--q", "3",
                           "--set", str(path), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["tight_i"] == 10 and rec["ovoid_m"] == 4


def test_classify_out_of_range(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps([0, 99]))
    code, _, err = run_cli("classify", "--kind", "W", "--dim", "3", "--q", "3",
                           "--set", str(path))
    assert code == 2


@pytest.mark.parametrize("data,message", [
    ([1.5, 3], "point index 1.5 is not an int"),
    ([0, "3"], "point index '3' is not an int"),
    ({"x": 1}, "set file has no 'indices' entry"),
    ({"indices": 4}, "set file is not a list of point indices"),
    (4, "set file is not a list of point indices"),
    ([True, 2], "point index True is a bool, not an int"),
    ([3, False, 5], "point index False is a bool, not an int"),
])
def test_classify_names_a_malformed_set(tmp_path, data, message):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli("classify", "--kind", "W", "--dim", "3", "--q", "3",
                             "--set", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("members", [(np.int64(3), 1, np.int32(3)),
                                     (np.int64(1), np.int64(3)), [1, 3]])
def test_point_set_takes_numpy_integers(w33, members):
    s = polar.PointSet(w33, members)
    assert s.members.tolist() == [1, 3] and s.members.dtype == np.int64


def test_reduce_row2():
    code, out, _ = run_cli("reduce", "--row", "2", "--q", "2", "--b", "2",
                           "--dim", "3")
    assert code == 0
    assert "Q+(7,2)" in out and "tight_i=5" in out


def test_reduce_alpha_changes_the_small_gram():
    code1, out1, _ = run_cli("reduce", "--row", "1", "--q", "3", "--b", "2",
                             "--dim", "1", "--json")
    code2, out2, _ = run_cli("reduce", "--row", "1", "--q", "3", "--b", "2",
                             "--dim", "1", "--alpha", "3", "--json")
    assert code1 == code2 == 0
    # M1 is the full space either way; only the embedded form differs
    assert json.loads(out1)["m1"]["tight_i"] == 10
    assert json.loads(out2)["m1"]["tight_i"] == 10


@pytest.mark.parametrize("row,q,dim,name", [
    ("3", "2", "1", "Q-(1,4)"),
    ("9", "3", "0", "H(0,9)"),
])
def test_reduce_names_a_large_space_without_points(row, q, dim, name):
    code, out, err = run_cli("reduce", "--row", row, "--q", q, "--b", "2",
                             "--dim", dim)
    assert code == 2 and out == ""
    assert err == f"error: {name} has no points to blow up\n"


def test_reduce_bad_alpha():
    code, _, err = run_cli("reduce", "--row", "1", "--q", "3", "--b", "2",
                           "--dim", "1", "--alpha", "9")
    assert code == 2 and "alpha" in err


@pytest.mark.parametrize("b", ["-1", "0"])
def test_reduce_refuses_an_extension_degree_below_one(b):
    code, out, err = run_cli("reduce", "--row", "1", "--q", "3", "--b", b,
                             "--dim", "1")
    assert code == 2 and out == ""
    assert err == f"error: extension degree --b must be at least 1, got {b}\n"


def test_construct_names():
    code, out, _ = run_cli("construct", "adjoint-sl3", "--q", "3")
    assert code == 0
    assert "52" in out and "312" in out
    code, out, _ = run_cli("construct", "sl2-5")
    assert code == 0
    assert "tight_i=5" in out


@pytest.mark.parametrize("argv,message", [
    (("sl2-5", "--q", "7"), "construct sl2-5 does not take --q"),
    (("q43-splits", "--q", "5"), "construct q43-splits does not take --q"),
    (("adjoint-sl3", "--kind", "W", "--t", "7"),
     "construct adjoint-sl3 does not take --kind"),
    (("adjoint-sl3", "--t", "7"), "construct adjoint-sl3 does not take --t"),
    (("extsq-sp6", "--q", "0", "--kind", "H"),
     "construct extsq-sp6 does not take --kind"),
    (("extsq-sp6", "--q", "0"), "only q=3 is within the desk budget"),
    (("adjoint-sl3", "--q", "0"), "0 is not a prime power"),
    (("dlength", "--kind", "Q", "--q", "3"), "dlength needs --kind, --q and --t"),
    (("dlength", "--kind", "Q", "--q", "3", "--t", "0"),
     "a length partition needs t >= 1 coordinates, got 0"),
    (("dlength", "--kind", "Q", "--q", "3", "--t", "-2"),
     "a length partition needs t >= 1 coordinates, got -2"),
    (("dlength", "--kind", "Q", "--q", "3", "--t", "1"),
     "Q(0,3) has no points to partition"),
    (("dlength", "--kind", "Q-", "--q", "3", "--t", "2"),
     "Q-(1,3) has no points to partition"),
])
def test_construct_refuses_flags_it_does_not_read(argv, message):
    """Each construction reads only its own optional flags, and a flag
    given as 0 counts as given."""
    code, out, err = run_cli("construct", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_construct_dlength():
    code, out, _ = run_cli("construct", "dlength", "--kind", "H", "--q", "4",
                           "--t", "5")
    assert code == 0
    assert "30" in out and "135" in out


def test_verify_single_target():
    code, out, _ = run_cli("verify", "space-counts")
    assert code == 0 and "PASS" in out


# sha256 of `polarkit verify fast --json` stdout, taken before the scalar
# form rules were each written once in forms.py
_VERIFY_FAST_SHA256 = "35a1371baecc9fffae432b9035990a402360aeac1a7cb10f7d79943747216f45"


def test_verify_fast_suite_json_deterministic():
    import hashlib
    code1, out1, _ = run_cli("verify", "fast", "--json")
    code2, out2, _ = run_cli("verify", "fast", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert hashlib.sha256(out1.encode()).hexdigest() == _VERIFY_FAST_SHA256
    lines = out1.strip().splitlines()
    assert len(lines) == 13
    for line in lines:
        assert json.loads(line)["match"] is True


# elements 2 and 16 of classical_generators("Omega", 5, GF(3)), frozen: their
# group has three orbits on Q(4,3), a 1-, a 3- and a 6-tight set
_OMEGA_PAIR = {"q": 3, "d": 5, "generators": [
    {"matrix": [[[1], [0], [0], [0], [0]], [[0], [1], [0], [0], [0]],
                [[0], [0], [1], [2], [0]], [[0], [0], [0], [1], [0]],
                [[0], [1], [0], [0], [1]]], "sigma_power": 0},
    {"matrix": [[[1], [0], [2], [0], [0]], [[2], [1], [2], [0], [2]],
                [[0], [0], [1], [0], [0]], [[0], [0], [1], [1], [0]],
                [[0], [0], [0], [0], [1]]], "sigma_power": 0}]}


# sha256 of stdout, taken while every orbit was still classified over the
# whole space
@pytest.mark.parametrize("argv,sha", [
    (("orbits", "--kind", "Q", "--dim", "4", "--q", "3", "--gens", "GENS", "--json"),
     "4b0932835acef48c48e089604f9ea0ba8bc41d8ad72dc6fb380931ce7e88b271"),
    (("construct", "adjoint-sl3", "--json"),
     "cc929cd9130a8b39b11058339bf79f9e1ee8cbf868e8f6892f54e060f17f0da9"),
    (("construct", "q43-splits", "--json"),
     "13ff107711e32973cf87f9c5a8acb35dd51da66532f5da2914d6292c650e63d6"),
], ids=["orbits-omega-pair", "construct-adjoint-sl3", "construct-q43-splits"])
def test_orbit_reports_stdout_is_pinned(tmp_path, argv, sha):
    import hashlib
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(_OMEGA_PAIR))
    code, out, _ = run_cli(*(str(gens) if a == "GENS" else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


# sha256 of stdout, taken while a point set was a sorted tuple of Python
# ints: the whole space of Q(10,3) classified from a file of all 29,524
# indices, M1 of the row-9 blow-up of H(4,4) to Q-(9,2), and the 40
# singleton orbits of the trivial group on W(3,3)
@pytest.mark.parametrize("argv,sha", [
    (("classify", "--kind", "Q", "--dim", "10", "--q", "3", "--set", "SET", "--json"),
     "3a8f566ee6bd4c20c73bcd06030bd6c19a5ac6be5a61032b12c8f7e941733f95"),
    (("reduce", "--row", "9", "--q", "2", "--b", "2", "--dim", "4", "--json"),
     "521304e75d643fb7fb367d9b6e08485511acff54340b52462d1adb4a56299add"),
    (("orbits", "--kind", "W", "--dim", "3", "--q", "3", "--gens", "GENS", "--json"),
     "e9020d056b781c29e2453b4ffb1c6de7e14d4b79f8fabf1f8d2e6deebb2b432e"),
], ids=["classify-whole-q10-3", "reduce-row9-blow-up", "orbits-trivial-w33"])
def test_point_set_stdout_is_pinned(tmp_path, argv, sha):
    import hashlib
    files = {"SET": tmp_path / "set.json", "GENS": tmp_path / "gens.json"}
    files["SET"].write_text(json.dumps(list(range(29524))))
    files["GENS"].write_text("[]")
    code, out, _ = run_cli(*(str(files[a]) if a in files else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


# sha256 of `polarkit classify --json` stdout for the standard generator of
# Q+(11,3), taken while every perp count was made point by point; the count
# now runs through the 3^6-row table of the generator's span
_QPLUS_11_3_GENERATOR_SHA256 = (
    "6cc8a38d3ef8472dfdf94cfa4e4c5c57bb3f88035f089b8d2794c36b2ae6a4bd")


def test_classify_generator_stdout_is_pinned(tmp_path):
    import hashlib
    sp = polar.build(forms.standard_form("Q+", 12, gf.field(3)))
    path = tmp_path / "generator.json"
    path.write_text(json.dumps(polar.maximal_ts_points(sp).members.tolist()))
    code, out, _ = run_cli("classify", "--kind", "Q+", "--dim", "11", "--q", "3",
                           "--set", str(path), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _QPLUS_11_3_GENERATOR_SHA256


# sha256 of `polarkit construct dlength --kind Q --q 3 --t 9 --json` stdout,
# taken while every perp count covered the whole space: Q(8,3) has 3280
# points in 7 row blocks, and none of its three length classes is constant
# off the class, so each side's stop shows in these bytes
_DLENGTH_Q83_SHA256 = (
    "5f4ae0b2a975d39115e0943f594b7c59f812b908864501073ee25cc7af9cd30e")


def test_dlength_stdout_is_pinned():
    import hashlib
    code, out, _ = run_cli("construct", "dlength", "--kind", "Q", "--q", "3",
                           "--t", "9", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DLENGTH_Q83_SHA256


def test_verify_unknown_target():
    code, _, err = run_cli("verify", "does-not-exist")
    assert code == 2 and "unknown" in err


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "polarkit.cli", "space", "--kind", "Q-",
         "--dim", "5", "--q", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "points=27" in proc.stdout


def test_console_script_usage_error():
    proc = subprocess.run([sys.executable, "-m", "polarkit.cli", "space"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
