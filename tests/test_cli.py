import hashlib
import json

import pytest

from superch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_usage_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "exceeds" in captured.err


class TestDerive:
    def test_text(self, capsys):
        code, out = run(capsys, "derive", "1", "1")
        assert code == 0
        assert "S1^2" in out and "[M^2]" in out

    def test_latex(self, capsys):
        code, out = run(capsys, "derive", "1", "1", "--format", "latex")
        assert code == 0
        assert "\\str_{1}" in out

    def test_json(self, capsys):
        code, out = run(capsys, "derive", "2", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["p"] == 2 and len(data["coeffs"]) == 4

    def test_osp(self, capsys):
        code, out = run(capsys, "derive", "2", "2", "--osp")
        assert code == 0
        assert "S2^2" in out

    def test_invalid_dims_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["derive", "0", "1"])
        assert exc.value.code == 2

    def test_seed_is_usage_error(self, capsys):
        # derive draws no random numbers, so it takes no seed
        with pytest.raises(SystemExit) as exc:
            main(["derive", "1", "1", "--seed", "3"])
        assert exc.value.code == 2

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "ident.txt"
        code = main(["derive", "1", "1", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(path) in captured.err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "ident.json"
        code, _ = run(capsys, "derive", "1", "1", "--format", "json", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["q"] == 1


class TestVerify:
    def test_pass(self, capsys):
        code, out = run(capsys, "verify", "2", "1", "--trials", "5", "--seed", "7")
        assert code == 0
        assert "5/5 passed" in out

    def test_json_deterministic(self, capsys):
        args = ("verify", "1", "1", "--trials", "3", "--seed", "5", "--format", "json")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_corrupted_identity_exits_1(self, capsys):
        from superch import CHIdentity, identity_coeffs
        from superch.cli import build_parser, cmd_verify

        good = identity_coeffs(1, 1)
        bad = CHIdentity(1, 1, [good.coeffs[0], good.coeffs[1], good.coeffs[2] + 1])
        args = build_parser().parse_args(["verify", "1", "1", "--trials", "2", "--seed", "0"])
        assert cmd_verify(args, identity=bad) == 1

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERCH_DEFAULT_SEED", "123")
        code, out = run(capsys, "verify", "1", "1", "--trials", "2")
        assert code == 0
        assert "seed=123" in out


    @pytest.mark.parametrize("command", ["verify", "charfn"])
    def test_non_integer_env_seed_is_usage_error(self, capsys, monkeypatch, command):
        monkeypatch.setenv("SUPERCH_DEFAULT_SEED", "seven")
        code = main([command, "1", "1", "--trials", "2"] if command == "verify" else [command, "1", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "SUPERCH_DEFAULT_SEED" in captured.err

    def test_soul_grade_above_generators_is_usage_error(self, capsys):
        assert_usage_error(capsys, "verify", "2", "1", "--generators", "2", "--soul-grade", "5")

    @pytest.mark.parametrize("command", ["verify", "charfn"])
    def test_latex_format_is_usage_error(self, capsys, command):
        # only derive and newton render LaTeX
        with pytest.raises(SystemExit) as exc:
            main([command, "1", "1", "--format", "latex"])
        assert exc.value.code == 2
        assert "invalid choice: 'latex'" in capsys.readouterr().err


class TestCharfn:
    # sha256 of the whole text output, recorded before the shared renderer
    # replaced the Multivector and UniPoly copies
    @pytest.mark.parametrize("seed, digest", [
        ("3", "9b44006d5c04fcce223c060c5ce94b8b57beca07fc8a1b74c81178a730673545"),
        ("11", "06ab03a6b553423b008342b7832cf7307c7c160badac4e1c66db0a85080fefc9"),
    ])
    def test_text_pinned(self, capsys, seed, digest):
        code, out = run(capsys, "charfn", "2", "1", "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_soul_grade_above_generators_is_usage_error(self, capsys):
        assert_usage_error(capsys, "charfn", "2", "1", "--generators", "2", "--soul-grade", "5")

    def test_equivalence_reported(self, capsys):
        code, out = run(capsys, "charfn", "1", "1", "--seed", "1")
        assert code == 0
        assert "equivalence (cross-multiplied): True" in out

    def test_full_poly_degree(self, capsys):
        code, out = run(capsys, "charfn", "2", "1", "--seed", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["equivalent"] is True
        assert data["full_char_poly_degree"] == 2 * 2 * 1 + 2 + 1


class TestNewton:
    def test_b3(self, capsys):
        code, out = run(capsys, "newton", "4", "3")
        assert code == 0
        assert "b_3 = -1/6*S1^3 + 1/2*S1*S2 - 1/3*S3" in out

    def test_b0(self, capsys):
        code, out = run(capsys, "newton", "3", "0")
        assert code == 0
        assert "b_0 = 1" in out

    def test_b2(self, capsys):
        code, out = run(capsys, "newton", "3", "2")
        assert code == 0
        assert "b_2 = 1/2*S1^2 - 1/2*S2" in out

    def test_negative_k_is_usage_error(self, capsys):
        code = main(["newton", "3", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "superch newton: k must be >= 0\n"
