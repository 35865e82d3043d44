"""The public API: the names ``coopverify`` exports stay exported."""

import coopverify

PUBLIC_NAMES = {
    "AnalysisConfig",
    "ArtifactAutomaton",
    "AutomatonKind",
    "ConcreteDataState",
    "ConcretePath",
    "ControlFlowAutomaton",
    "CoopVerifyError",
    "DuplicateOtherwise",
    "EdgePattern",
    "ExecutionReport",
    "Interval",
    "InvalidArtifact",
    "Judgment",
    "KindReport",
    "MatchVerdict",
    "NoViolatingPath",
    "ParseError",
    "PipelineStepError",
    "Recipe",
    "Result",
    "Role",
    "TestRecord",
    "TestSuite",
    "Transition",
    "TypeMismatch",
    "UnboundTemplate",
    "UndefinedVariable",
    "UnknownKind",
    "UseBeforeDef",
    "Verdict",
    "VerdictBundle",
    "accepts",
    "build_test_case_automaton",
    "check_condition_correct",
    "check_correctness_witness",
    "check_fulfills",
    "check_test_covers",
    "check_violation_witness",
    "conditional_verify",
    "covers",
    "enumerate_paths",
    "exec_test",
    "extract_test",
    "generate_tests",
    "match_path",
    "parse_automaton",
    "parse_cfa",
    "parse_expression",
    "parse_predicate",
    "parse_program",
    "parse_recipe",
    "pred_text",
    "reduce",
    "run_pipeline",
    "serialize_automaton",
    "serialize_cfa",
    "validate_kind",
    "validate_result",
    "verify",
}


def test_01_all_is_the_pinned_public_api():
    """Removing or adding a public name is an API change to make on purpose:
    update this set with it."""
    assert sorted(coopverify.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert hasattr(coopverify, name), name
