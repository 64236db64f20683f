import json
import subprocess
import sys
from pathlib import Path

import pytest

from nncpoly import bench, cli, conversion
from nncpoly.cli import main
from nncpoly.errors import EmptySupportError, InvariantError, StaleIdError

BOX_INE = """\
H-representation
strict 1 3
begin
 4 3 integer
 0 1 0
 0 0 1
 2 -1 0
 2 0 -1
end
"""
SEG_EXT = "V-representation\nclosure 1 2\nbegin\n 2 2 integer\n 1 1\n 1 3\nend\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_convert_h_to_v(tmp_path, capsys):
    src = write(tmp_path, "box.ine", BOX_INE)
    assert main(["convert", src]) == 0
    out = capsys.readouterr().out
    assert out.startswith("V-representation")
    assert "closure 2 " in out


def test_convert_roundtrips_through_files(tmp_path):
    src = write(tmp_path, "box.ine", BOX_INE)
    ext = str(tmp_path / "box.ext")
    ine2 = str(tmp_path / "box2.ine")
    assert main(["convert", src, "-o", ext]) == 0
    assert main(["convert", ext, "-o", ine2]) == 0
    from nncpoly import NncPolyhedron, parse_ine

    a = NncPolyhedron.from_constraints(*parse_ine(BOX_INE))
    b = NncPolyhedron.from_constraints(*parse_ine(Path(ine2).read_text()))
    assert a.equals(b)


def test_convert_writes_stats(tmp_path):
    src = write(tmp_path, "box.ine", BOX_INE)
    stats = tmp_path / "s.json"
    assert main(["convert", src, "-o", str(tmp_path / "o.ext"), "--stats", str(stats)]) == 0
    rec = json.loads(stats.read_text())
    assert rec["direction"] == "c2g"
    assert rec["dim"] == 2
    assert rec["rows_in"] == 4
    assert rec["iterations"] == 4
    assert rec["vec_ops"] > 0
    assert len(rec["sizes"]) == rec["iterations"]
    assert rec["pairs_offered"] >= rec["pairs_adjacent"] > 0
    assert rec["faces_tried"] >= rec["faces_walked"] >= rec["faces_kept"] >= 0
    assert rec["faces_tried"] > 0


def test_convert_empty_v_file(tmp_path, capsys):
    src = write(tmp_path, "none.ext", "V-representation\nbegin\n 0 3 integer\nend\n")
    assert main(["convert", src]) == 0
    out = capsys.readouterr().out
    # the canonical unsatisfiable row
    assert "-1 0 0" in out


def test_check_passes_on_good_input(tmp_path, capsys):
    src = write(tmp_path, "box.ine", BOX_INE)
    assert main(["check", src, "--roundtrip", "--oracle", "eps"]) == 0
    out = capsys.readouterr().out
    assert "roundtrip: PASS" in out
    assert "oracle(eps): PASS" in out


def test_check_defaults_to_roundtrip(tmp_path, capsys):
    src = write(tmp_path, "box.ine", BOX_INE)
    assert main(["check", src]) == 0
    assert "roundtrip: PASS" in capsys.readouterr().out


def test_check_v_side_with_oracle(tmp_path, capsys):
    src = write(tmp_path, "seg.ext", SEG_EXT)
    assert main(["check", src, "--oracle", "eps"]) == 0
    assert "oracle(eps): PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "V-representation\nclosure 1 1\nbegin\n 1 2 integer\n 1 1\nend\n",
        "V-representation\nclosure 1 1\nbegin\n 2 3 integer\n 1 1 2\n 0 1 -1\nend\n",
        "V-representation\nbegin\n 1 3 integer\n 0 1 0\nend\n",
        "V-representation\nlinearity 1 1\nbegin\n 1 3 integer\n 0 1 0\nend\n",
        "V-representation\nbegin\n 0 3 integer\nend\n",
    ],
    ids=["closure-point", "closure-point-and-ray", "ray-only", "line-only", "no-rows"],
)
def test_check_oracle_on_a_v_file_without_points(tmp_path, capsys, text):
    # the set is empty, and the slack route must say so too
    src = write(tmp_path, "nopoint.ext", text)
    assert main(["check", src, "--oracle", "eps"]) == 0
    assert "oracle(eps): PASS" in capsys.readouterr().out


def test_check_oracle_on_an_h_file_without_rows(tmp_path, capsys):
    # no row leaves the whole plane, which the check takes without the
    # slack route
    src = write(tmp_path, "none.ine", "H-representation\nbegin\n 0 3 integer\nend\n")
    assert main(["check", src, "--oracle", "eps"]) == 0
    assert "oracle(eps): PASS" in capsys.readouterr().out


@pytest.mark.parametrize("name, text", [("box.ine", BOX_INE), ("seg.ext", SEG_EXT)], ids=["H", "V"])
def test_check_parses_its_input_once(tmp_path, monkeypatch, capsys, name, text):
    parsed = []
    for parser in ("parse_ine", "parse_ext"):
        real = getattr(cli, parser)
        monkeypatch.setattr(cli, parser, lambda t, real=real: parsed.append(t) or real(t))
    src = write(tmp_path, name, text)
    assert main(["check", src, "--roundtrip", "--oracle", "eps"]) == 0
    assert "oracle(eps): PASS" in capsys.readouterr().out
    assert parsed == [text]


def test_parse_failure_exits_2(tmp_path, capsys):
    src = write(tmp_path, "bad.ine", "garbage\n")
    assert main(["convert", src]) == 2
    assert "nncdd:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["convert", str(tmp_path / "nope.ine")]) == 2
    assert "nncdd:" in capsys.readouterr().err


def test_broken_invariant_exits_3(tmp_path, monkeypatch, capsys):
    def broken(*_args):
        raise InvariantError("support lost its position row")

    monkeypatch.setattr(conversion, "process_row", broken)
    src = write(tmp_path, "box.ine", BOX_INE)
    assert main(["convert", src]) == 3
    assert "invariant" in capsys.readouterr().err


@pytest.mark.parametrize("error", [StaleIdError, EmptySupportError])
def test_stale_bookkeeping_exits_3(tmp_path, monkeypatch, capsys, error):
    # stale ids and empty supports are engine faults, not usage errors
    def broken(*_args):
        raise error("stale bookkeeping")

    monkeypatch.setattr(conversion, "process_row", broken)
    src = write(tmp_path, "box.ine", BOX_INE)
    assert main(["convert", src]) == 3
    assert "invariant" in capsys.readouterr().err


def test_bench_subcommand(tmp_path, capsys):
    stats = tmp_path / "bench.json"
    assert main(["bench", "dualhypercube", "--dim", "2", "--stats", str(stats)]) == 0
    out = capsys.readouterr().out
    assert "dualhypercube dim=2" in out
    rep = json.loads(stats.read_text())
    assert rep["new"]["max_size"] > 0
    assert rep["eps"]["max_size"] >= rep["new"]["max_size"]
    assert rep["new"]["wall_s"] > 0 and rep["eps"]["wall_s"] > 0
    assert "wall_s=" in out


def test_bench_dimension_over_cap_exits_2(monkeypatch, capsys):
    # 2**dim facets per variant: an over-cap dim is refused before the
    # first row is built, so it cannot exhaust memory
    def no_rows(*_args):
        raise AssertionError("a facet row was built")

    monkeypatch.setattr(bench, "Constraint", no_rows)
    assert main(["bench", "dualhypercube", "--dim", str(bench.MAX_DIM + 1)]) == 2
    assert f"between 1 and {bench.MAX_DIM}" in capsys.readouterr().err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nncpoly.cli", "bench", "dualhypercube", "--dim", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "dualhypercube" in proc.stdout
