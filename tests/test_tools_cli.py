"""Tests for the operator commands: decide, analyze, generate."""


from repro.cli import main


class TestDecide:
    def test_severe_disorder(self, capsys):
        code = main(
            ["decide", "--mu", "5", "--sigma", "2", "--dt", "50",
             "--budget", "128"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pi_s" in out
        assert "predicted WA" in out

    def test_mild_disorder_keeps_pi_c(self, capsys):
        code = main(
            ["decide", "--mu", "1", "--sigma", "0.3", "--dt", "50",
             "--budget", "128"]
        )
        assert code == 0
        assert "pi_c" in capsys.readouterr().out

    def test_exhaustive_flag(self, capsys):
        code = main(
            ["decide", "--mu", "4", "--sigma", "1.5", "--dt", "50",
             "--budget", "32", "--exhaustive"]
        )
        assert code == 0

    def test_json_output(self, capsys):
        import json

        code = main(
            ["decide", "--mu", "5", "--sigma", "2", "--dt", "50",
             "--budget", "128", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "separation"
        assert payload["r_s_star"] < payload["r_c"]
        assert 1 <= payload["seq_capacity"] <= 127

    def test_non_finite_law_parameter_is_an_error(self, capsys):
        code = main(["decide", "--mu", "nan", "--sigma", "1", "--dt", "50"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: mu must be finite")
        assert captured.out == ""


class TestGenerateAndAnalyze:
    def test_round_trip(self, tmp_path, capsys):
        csv_path = tmp_path / "stream.csv"
        code = main(
            ["generate", str(csv_path), "--points", "20000", "--dt", "50",
             "--mu", "5", "--sigma", "2", "--seed", "3"]
        )
        assert code == 0
        assert csv_path.exists()
        out = capsys.readouterr().out
        assert "wrote 20000 points" in out

        code = main(["analyze", str(csv_path), "--budget", "128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "analyzed 20000 points" in out
        # Severe disorder -> the analyzer should recommend separation.
        assert "pi_s" in out

    def test_missing_file_fails_cleanly(self, capsys):
        code = main(["analyze", "/nonexistent/stream.csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_non_numeric_row_names_file_and_row(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("generation,arrival\n1,2\nabc,3\n")
        assert main(["analyze", str(csv_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {csv_path}:3: row ['abc', '3']")
        assert captured.out == ""
