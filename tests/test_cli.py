"""Tests for the mfcsl command-line interface."""

import pytest

from repro.checking.context import EvaluationContext
from repro.cli import (
    EXIT_BUDGET_EXCEEDED,
    EXIT_CHECKING_ERROR,
    EXIT_FORMULA_ERROR,
    EXIT_MODEL_ERROR,
    EXIT_WORKER_FAILURE,
    MODELS,
    build_parser,
    exit_code_for,
    main,
)
from repro.exceptions import (
    BudgetExceededError,
    HorizonError,
    InvalidRateError,
    ModelError,
    NumericalError,
    ParseError,
    SteadyStateError,
    UnsupportedFormulaError,
    WorkerError,
)


LEAF = "E[>0.1](infected)"


def _check_args(formula):
    return [
        "check", "--model", "virus1", "--occupancy", "0.8,0.15,0.05",
        formula,
    ]


class TestParser:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "virus1" in out
        assert "infected" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["check", "value", "csat"])
    def test_workers_is_only_for_monte_carlo(self, command, capsys):
        """Only ``simulate`` and ``mc`` run worker processes; on the
        numerical subcommands ``--workers`` is a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [command, "--occupancy", "0.8,0.15,0.05",
                 "--workers", "2", LEAF]
            )
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestCheck:
    def test_satisfied_formula_exit_zero(self, capsys):
        code = main(
            [
                "check",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "EP[<0.3](not_infected U[0,1] infected)",
            ]
        )
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_violated_formula_exit_one(self, capsys):
        code = main(
            [
                "check",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "E[>0.8](infected)",
            ]
        )
        assert code == 1
        assert "NOT SATISFIED" in capsys.readouterr().out

    def test_explain_flag(self, capsys):
        main(
            [
                "check",
                "--explain",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "E[<0.5](infected) & E[>0.5](not_infected)",
            ]
        )
        out = capsys.readouterr().out
        assert "value=" in out
        assert out.count("->") >= 2

    def test_phi1_convention_flag(self, capsys):
        code = main(
            [
                "value",
                "--convention",
                "phi1",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "EP[<0.3](not_infected U[0,1] infected)",
            ]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(0.0339, abs=1e-3)

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "check",
                    "--model",
                    "nope",
                    "--occupancy",
                    "1,0,0",
                    "tt",
                ]
            )

    def test_bad_occupancy_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "check",
                    "--model",
                    "virus1",
                    "--occupancy",
                    "a,b,c",
                    "tt",
                ]
            )

    def test_invalid_occupancy_returns_error_code(self, capsys):
        code = main(
            [
                "check",
                "--model",
                "virus1",
                "--occupancy",
                "0.5,0.1,0.1",
                "tt",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestValue:
    def test_prints_float(self, capsys):
        code = main(
            [
                "value",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "E[>0](infected)",
            ]
        )
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.2)


class TestCsat:
    def test_whole_horizon(self, capsys):
        code = main(
            [
                "csat",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "--theta",
                "5",
                "tt",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[0.000000, 5.000000]" in out

    def test_empty_result(self, capsys):
        code = main(
            [
                "csat",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "--theta",
                "5",
                "ff",
            ]
        )
        assert code == 0
        assert "empty" in capsys.readouterr().out


class TestSimulate:
    ARGS = [
        "simulate",
        "--model",
        "virus1",
        "--occupancy",
        "0.8,0.15,0.05",
        "-N",
        "200",
        "--runs",
        "5",
        "--horizon",
        "0.5",
        "--seed",
        "3",
    ]

    def test_reports_ensemble_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "final occupancy" in out
        assert "RMSE vs mean-field" in out
        assert "events=" in out

    def test_workers_do_not_change_output(self, capsys):
        main(self.ARGS + ["--workers", "1", "--batch-size", "2"])
        one = capsys.readouterr().out
        main(self.ARGS + ["--workers", "3", "--batch-size", "2"])
        three = capsys.readouterr().out
        # Identical up to the echoed workers= line.
        strip = lambda s: [l for l in s.splitlines() if "workers=" not in l]
        assert strip(one) == strip(three)

    def test_serial_method(self, capsys):
        assert main(self.ARGS + ["--method", "serial", "--runs", "2"]) == 0
        assert "method=serial" in capsys.readouterr().out


class TestMc:
    ARGS = [
        "mc",
        "--model",
        "virus1",
        "--occupancy",
        "0.8,0.15,0.05",
        "--samples",
        "300",
        "--seed",
        "2",
    ]
    FORMULA = "not_infected U[0,1] infected"

    def test_path_probability(self, capsys):
        assert main(self.ARGS + ["--state", "s1", self.FORMULA]) == 0
        out = capsys.readouterr().out
        assert "Prob(s1" in out
        assert "95% CI" in out
        assert "paths=300" in out

    def test_expected_probability_without_state(self, capsys):
        assert main(self.ARGS + [self.FORMULA]) == 0
        out = capsys.readouterr().out
        assert "EP(" in out

    def test_workers_do_not_change_estimate(self, capsys):
        main(self.ARGS + ["--state", "s1", "--workers", "1", self.FORMULA])
        one = capsys.readouterr().out.splitlines()[0]
        main(self.ARGS + ["--state", "s1", "--workers", "4", self.FORMULA])
        four = capsys.readouterr().out.splitlines()[0]
        assert one == four

    def test_nested_formula_errors_cleanly(self, capsys):
        code = main(
            self.ARGS
            + ["--state", "s1", "(P[>0.5](tt U[0,1] infected)) U[0,1] infected"]
        )
        # Formula-class failures get their own exit code (3).
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestExitCodes:
    """The exception taxonomy maps to distinct exit codes."""

    def test_mapping_covers_the_taxonomy(self):
        assert exit_code_for(ModelError("x")) == EXIT_MODEL_ERROR
        assert exit_code_for(InvalidRateError("x")) == EXIT_MODEL_ERROR
        assert exit_code_for(ParseError("x", position=3)) == EXIT_FORMULA_ERROR
        assert (
            exit_code_for(UnsupportedFormulaError("x")) == EXIT_FORMULA_ERROR
        )
        assert exit_code_for(NumericalError("x")) == EXIT_CHECKING_ERROR
        assert exit_code_for(HorizonError("x")) == EXIT_CHECKING_ERROR
        assert exit_code_for(SteadyStateError("x")) == EXIT_CHECKING_ERROR

    def test_budget_and_worker_precede_their_checking_parent(self):
        assert (
            exit_code_for(BudgetExceededError("x")) == EXIT_BUDGET_EXCEEDED
        )
        assert exit_code_for(WorkerError("x")) == EXIT_WORKER_FAILURE

    def test_formula_parse_error_exits_3(self, capsys):
        code = main(
            [
                "check",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "EP[<0.3](not_infected U[0,",
            ]
        )
        assert code == EXIT_FORMULA_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "formula",
        ["(" * 200 + LEAF + ")" * 200, " & ".join([LEAF] * 1000)],
        ids=["200-parentheses", "1000-term-chain"],
    )
    def test_too_deep_formula_exits_3(
        self, capsys, on_fresh_thread, formula
    ):
        code = on_fresh_thread(main, _check_args(formula))
        assert code == EXIT_FORMULA_ERROR
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "formula",
        ["(" * 100 + LEAF + ")" * 100, " & ".join([LEAF] * 900)],
        ids=["100-parentheses", "900-term-chain"],
    )
    def test_deep_formula_within_reach_still_checks(
        self, capsys, on_fresh_thread, formula
    ):
        assert on_fresh_thread(main, _check_args(formula)) == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_ode_chain_failure_exits_4(self, capsys, monkeypatch):
        def failing(self, signature, q_of_t, t_start, duration):
            raise NumericalError("injected: ode chain down")

        monkeypatch.setattr(EvaluationContext, "_transient_ode", failing)
        code = main(_check_args("EP[<0.3](not_infected U[0,1] infected)"))
        assert code == EXIT_CHECKING_ERROR
        assert "injected: ode chain down" in capsys.readouterr().err

    def test_expired_deadline_exits_5_with_progress(self, capsys):
        code = main(
            [
                "check",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "--deadline",
                "1e-9",
                "EP[<0.3](not_infected U[0,1] infected)",
            ]
        )
        assert code == EXIT_BUDGET_EXCEEDED
        err = capsys.readouterr().err
        assert "budget" in err
        assert "progress:" in err

    def test_generous_deadline_checks_normally(self, capsys):
        code = main(
            [
                "check",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "--deadline",
                "600",
                "EP[<0.3](not_infected U[0,1] infected)",
            ]
        )
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out


class TestModelRegistry:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_all_models_construct(self, name):
        model = MODELS[name]()
        assert model.num_states >= 2

    def test_parser_help_builds(self):
        parser = build_parser()
        assert parser.prog == "mfcsl"


class TestDiagnose:
    def test_check_diagnose_prints_trace(self, capsys):
        code = main(
            [
                "check",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "--diagnose",
                "EP[<0.3](not_infected U[0,1] infected)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SATISFIED" in out
        assert "diagnostics:" in out
        assert "solver calls:" in out
        assert "residual maxima:" in out
        assert "cache:" in out
        assert "fallbacks" in out

    def test_csat_diagnose_prints_trace(self, capsys):
        code = main(
            [
                "csat",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "--theta",
                "2",
                "--diagnose",
                "E[<0.5](infected)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "diagnostics:" in out

    def test_no_formula_optimizations_checks_as_written(self, capsys):
        args = [
            "check",
            "--model",
            "virus1",
            "--occupancy",
            "0.8,0.15,0.05",
            "--diagnose",
            "E[>=0](infected) & EP[<0.3](not_infected U[0,1] infected)",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "formula rewrite: 1 vacuous bounds" in out
        assert "formula opt: 1 rewrites" in out
        assert main(args[:-1] + ["--no-formula-optimizations", args[-1]]) == 0
        out = capsys.readouterr().out
        assert "SATISFIED" in out
        assert "formula rewrite" not in out
        assert "formula opt" not in out

    def test_without_flag_no_trace(self, capsys):
        main(
            [
                "value",
                "--model",
                "virus1",
                "--occupancy",
                "0.8,0.15,0.05",
                "E[<0.5](infected)",
            ]
        )
        assert "diagnostics:" not in capsys.readouterr().out


class TestBudgetUnification:
    """Regression: every subcommand funnels its execution limits through
    ``Budget.from_options`` — ``simulate`` and ``mc`` used to build a
    deadline-only budget by hand, silently dropping ``--max-solves``,
    ``--max-refinements`` and ``--max-memory-mb``."""

    LIMITS = [
        "--deadline", "5.0",
        "--max-solves", "7",
        "--max-refinements", "2",
        "--max-memory-mb", "128",
    ]

    @pytest.mark.parametrize(
        "head",
        [
            ["check", "--occupancy", "0.8,0.15,0.05"],
            ["value", "--occupancy", "0.8,0.15,0.05"],
            ["csat", "--occupancy", "0.8,0.15,0.05"],
            ["simulate", "--occupancy", "0.8,0.15,0.05"],
            ["mc", "--occupancy", "0.8,0.15,0.05"],
        ],
    )
    def test_every_subcommand_accepts_every_limit_flag(self, head):
        from repro.cli import _budget_options, build_parser
        from repro.resilience import Budget

        argv = head + self.LIMITS
        if head[0] in ("check", "value", "csat", "mc"):
            argv = argv + ["E[<0.5](infected)"]
        args = build_parser().parse_args(argv)
        budget = Budget.from_options(_budget_options(args))
        assert budget is not None
        assert budget.deadline == 5.0
        assert budget.max_solves == 7
        assert budget.max_refinements == 2
        assert budget.max_memory_mb == 128.0

    def test_check_options_carry_all_limits(self):
        from repro.cli import _build_checker, build_parser

        args = build_parser().parse_args(
            ["check", "--occupancy", "0.8,0.15,0.05"]
            + self.LIMITS
            + ["E[<0.5](infected)"]
        )
        options = _build_checker(args).options
        assert options.deadline == 5.0
        assert options.max_solves == 7
        assert options.max_refinements == 2
        assert options.max_memory_mb == 128.0

    def test_mc_honors_the_deadline(self, capsys):
        code = main(
            [
                "mc",
                "--model", "virus1",
                "--occupancy", "0.8,0.15,0.05",
                "--samples", "5000",
                "--deadline", "1e-9",
                "--state", "s1",
                "not_infected U[0,1] infected",
            ]
        )
        assert code == EXIT_BUDGET_EXCEEDED
        assert "error" in capsys.readouterr().err

    def test_no_limit_flags_build_no_budget(self):
        from repro.cli import _budget_options, build_parser
        from repro.resilience import Budget

        args = build_parser().parse_args(
            ["simulate", "--occupancy", "0.8,0.15,0.05"]
        )
        assert Budget.from_options(_budget_options(args)) is None


class TestServeQueryParser:
    """The serve/query subcommands parse without side effects."""

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port == 8349
        assert args.max_entries == 32
        assert args.max_concurrent == 4

    def test_serve_rejects_cache_dir(self, capsys):
        """Answers live in memory only; there is no spill directory."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--cache-dir", "x"])
        assert excinfo.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_query_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["query", "--occupancy", "0.8,0.15,0.05", "E[<0.5](infected)"]
        )
        assert args.query_command == "check"
        assert args.url == "http://127.0.0.1:8349"
        assert args.formula == "E[<0.5](infected)"

    def test_query_requires_formula_or_stats(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "--url", "http://127.0.0.1:1"])
