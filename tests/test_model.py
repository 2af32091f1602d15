from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aurcase
from aurcase.diagnostics import Diagnostic, Severity, SourceSpan
from aurcase.dsl import parse
from aurcase.lifecycle import (
    LedgerEntry,
    Phase,
    drift_check,
    parse_ledger,
    quantitative_criteria,
    readiness_review,
)
from aurcase.model import (
    AcceptanceCriterion,
    AcSpaceRegion,
    AggregationLevel,
    ArgumentRow,
    BehavioralCapability,
    CausalStage,
    ClaimKind,
    ClaimNode,
    ConflictRole,
    FunctionalityStatus,
    Hazard,
    HazardCategory,
    IndicatorKind,
    Methodology,
    ModelError,
    Record,
    SafetyCase,
    SeverityLevel,
    TargetKind,
    UnresolvedCaseError,
    ValidationTarget,
    classify_indicator,
    iter_claim_nodes,
    iter_rows,
    require_resolved,
    resolve_references,
)
from aurcase.report import build_report
from aurcase.rules import RuleConfig, rule_catalog

import oracles
from strategies import safety_cases


def _hazard(hazard_id="H1", category=HazardCategory.BEHAVIORAL):
    return Hazard(id=hazard_id, description="collision", primary_category=category)


def _criterion(criterion_id="AC1", hazard_ids=("H1",), methodology_id="M1", **kwargs):
    return AcceptanceCriterion(
        id=criterion_id,
        statement="stated",
        hazard_ids=frozenset(hazard_ids),
        methodology_id=methodology_id,
        aggregation=kwargs.pop("aggregation", AggregationLevel.AGGREGATE_LEVEL),
        **kwargs,
    )


class TestClassifyIndicator:
    def test_harm_is_lagging(self):
        assert classify_indicator(CausalStage.HARM) is IndicatorKind.LAGGING

    def test_triggering_condition_is_leading(self):
        assert (
            classify_indicator(CausalStage.TRIGGERING_CONDITION)
            is IndicatorKind.LEADING
        )

    def test_hazardous_event_is_leading(self):
        assert classify_indicator(CausalStage.HAZARDOUS_EVENT) is IndicatorKind.LEADING

    def test_total_with_exactly_one_lagging_stage(self):
        kinds = [classify_indicator(stage) for stage in CausalStage]
        assert len(kinds) == 5
        assert kinds.count(IndicatorKind.LAGGING) == 1


def test_causal_stage_order():
    stages = list(CausalStage)
    assert stages == sorted(stages)
    assert max(CausalStage) is CausalStage.HARM


def test_severity_order():
    assert list(SeverityLevel) == sorted(SeverityLevel)
    assert max(SeverityLevel) is SeverityLevel.S3
    assert len(SeverityLevel) == 4


def test_hazard_category_has_exactly_three_members():
    assert len(HazardCategory) == 3


def test_hazard_rejects_primary_repeated_as_secondary():
    with pytest.raises(ModelError, match="primary category repeated"):
        Hazard(
            id="H1",
            description="x",
            primary_category=HazardCategory.BEHAVIORAL,
            secondary_categories=frozenset({HazardCategory.BEHAVIORAL}),
        )


def test_hazard_counts_under_every_category_it_carries():
    hazard = Hazard(
        id="H1",
        description="x",
        primary_category=HazardCategory.ARCHITECTURAL,
        secondary_categories=frozenset({HazardCategory.BEHAVIORAL}),
    )
    assert hazard.categories == {
        HazardCategory.ARCHITECTURAL,
        HazardCategory.BEHAVIORAL,
    }


def test_methodology_region_requires_behavioral_category():
    region = AcSpaceRegion(
        severities=frozenset(SeverityLevel),
        roles=frozenset(ConflictRole),
        capabilities=frozenset(BehavioralCapability),
        statuses=frozenset(FunctionalityStatus),
        aggregations=frozenset(AggregationLevel),
    )
    with pytest.raises(ModelError, match="behavioral"):
        Methodology(id="M1", name="x", hazard_categories=frozenset(), region=region)


def test_region_rejects_weak_severities_outside_its_range():
    with pytest.raises(ModelError, match="weak_severities"):
        AcSpaceRegion(
            severities=frozenset({SeverityLevel.S0, SeverityLevel.S1}),
            roles=frozenset({ConflictRole.RESPONDER}),
            capabilities=frozenset({BehavioralCapability.COLLISION_AVOIDANCE}),
            statuses=frozenset({FunctionalityStatus.NOMINAL}),
            aggregations=frozenset({AggregationLevel.AGGREGATE_LEVEL}),
            weak_severities=frozenset({SeverityLevel.S1, SeverityLevel.S3}),
        )


def test_criterion_requires_a_hazard():
    with pytest.raises(ModelError, match="at least one"):
        _criterion(hazard_ids=())


def test_criterion_aggregation_must_lie_in_own_region():
    region = AcSpaceRegion(
        severities=frozenset({SeverityLevel.S0}),
        roles=frozenset({ConflictRole.RESPONDER}),
        capabilities=frozenset({BehavioralCapability.COLLISION_AVOIDANCE}),
        statuses=frozenset({FunctionalityStatus.NOMINAL}),
        aggregations=frozenset({AggregationLevel.AGGREGATE_LEVEL}),
    )
    with pytest.raises(ModelError, match="aggregation level"):
        _criterion(aggregation=AggregationLevel.EVENT_LEVEL, region=region)


def test_rate_bound_target_invariants():
    with pytest.raises(ModelError, match="max_rate"):
        ValidationTarget(
            kind=TargetKind.RATE_BOUND,
            event_definition="e",
            max_rate=0.0,
            exposure_unit="mi",
            confidence=0.9,
        )
    with pytest.raises(ModelError, match="confidence"):
        ValidationTarget(
            kind=TargetKind.RATE_BOUND,
            event_definition="e",
            max_rate=1e-6,
            exposure_unit="mi",
            confidence=1.0,
        )


def test_argument_row_requires_text():
    with pytest.raises(ModelError, match="non-empty"):
        ArgumentRow(label="A.1", argument="")


class TestClaimShape:
    def test_top_claim_needs_criterion(self):
        with pytest.raises(ModelError, match="criterion"):
            ClaimNode(kind=ClaimKind.TOP_CLAIM, id="C1")

    def test_non_root_must_not_reference_criterion(self):
        with pytest.raises(ModelError, match="only a top claim"):
            ClaimNode(kind=ClaimKind.SATISFACTION, criterion_id="AC1")

    def test_facet_needs_label_and_others_must_not_carry_one(self):
        with pytest.raises(ModelError, match="label"):
            ClaimNode(kind=ClaimKind.FACET)
        with pytest.raises(ModelError, match="only facets"):
            ClaimNode(kind=ClaimKind.SATISFACTION, facet_label="x")

    def test_assessments_only_beneath_satisfaction(self):
        coverage = ClaimNode(kind=ClaimKind.COVERAGE_ASSESSMENT)
        with pytest.raises(ModelError, match="cannot sit"):
            ClaimNode(kind=ClaimKind.REASONABLENESS, children=(coverage,))

    def test_facet_only_beneath_confidence_assessment(self):
        facet = ClaimNode(kind=ClaimKind.FACET, facet_label="Fidelity")
        with pytest.raises(ModelError, match="cannot sit"):
            ClaimNode(kind=ClaimKind.SATISFACTION, children=(facet,))
        # ... but facets may nest under facets: depth is unconstrained.
        ClaimNode(kind=ClaimKind.FACET, facet_label="outer", children=(facet,))

    def test_only_top_claims_may_be_roots(self):
        with pytest.raises(ModelError, match="root"):
            SafetyCase(id="case", claims=(ClaimNode(kind=ClaimKind.SATISFACTION),))


class TestIdentifierUniqueness:
    def test_duplicate_within_collection_rejected(self):
        with pytest.raises(ModelError, match="duplicate identifier H1"):
            SafetyCase(id="case", hazards=(_hazard(), _hazard()))

    def test_duplicate_across_collections_rejected(self):
        with pytest.raises(ModelError, match="duplicate identifier X1"):
            SafetyCase(
                id="case",
                hazards=(_hazard("X1"),),
                methodologies=(Methodology(id="X1", name="n"),),
            )

    def test_duplicate_claim_node_id_rejected(self):
        inner = ClaimNode(kind=ClaimKind.REASONABLENESS, id="H1")
        claim = ClaimNode(
            kind=ClaimKind.TOP_CLAIM, id="C1", criterion_id="AC1", children=(inner,)
        )
        with pytest.raises(ModelError, match="duplicate identifier H1"):
            SafetyCase(id="case", hazards=(_hazard(),), claims=(claim,))


def test_collections_are_normalized_by_id():
    case = SafetyCase(id="case", hazards=(_hazard("H2"), _hazard("H1")))
    assert [h.id for h in case.hazards] == ["H1", "H2"]


class TestResolveReferences:
    def test_fully_resolved_case_has_no_findings(self):
        case = SafetyCase(
            id="case",
            hazards=(_hazard(),),
            methodologies=(Methodology(id="M1", name="n"),),
            criteria=(_criterion(),),
        )
        assert resolve_references(case) == []

    def test_missing_hazard_is_reported(self):
        case = SafetyCase(
            id="case",
            methodologies=(Methodology(id="M1", name="n"),),
            criteria=(_criterion(hazard_ids=("H9",)),),
        )
        findings = resolve_references(case)
        assert [(f.referrer, f.field, f.missing) for f in findings] == [
            ("AC1", "hazard_ids", "H9")
        ]

    def test_missing_evidence_reported_with_row_key(self):
        row = ArgumentRow(label="A.1", argument="a", evidence_ids=frozenset({"E7"}))
        claim = ClaimNode(
            kind=ClaimKind.TOP_CLAIM, id="C1", criterion_id="AC1", rows=(row,)
        )
        case = SafetyCase(
            id="case",
            hazards=(_hazard(),),
            methodologies=(Methodology(id="M1", name="n"),),
            criteria=(_criterion(),),
            claims=(claim,),
        )
        findings = resolve_references(case)
        assert [(f.referrer, f.field, f.missing) for f in findings] == [
            ("C1.A.1", "evidence_ids", "E7")
        ]


def test_analyses_refuse_on_unresolved_case():
    from aurcase import aggregation_balance, coverage_map, serialize, trace_matrix

    case = SafetyCase(
        id="case",
        methodologies=(Methodology(id="M1", name="n"),),
        criteria=(_criterion(hazard_ids=("H9",)),),
    )
    for analysis in (coverage_map, aggregation_balance, trace_matrix, serialize):
        with pytest.raises(UnresolvedCaseError):
            analysis(case)
    with pytest.raises(UnresolvedCaseError, match="unresolved reference"):
        require_resolved(case)


def test_claim_walk_keys_follow_ids_then_ordinals():
    tree = ClaimNode(
        kind=ClaimKind.TOP_CLAIM,
        id="C1",
        criterion_id="AC1",
        children=(
            ClaimNode(kind=ClaimKind.REASONABLENESS, id="SC1"),
            ClaimNode(
                kind=ClaimKind.SATISFACTION,
                children=(
                    ClaimNode(kind=ClaimKind.COVERAGE_ASSESSMENT),
                    ClaimNode(
                        kind=ClaimKind.CONFIDENCE_ASSESSMENT,
                        children=(
                            ClaimNode(
                                kind=ClaimKind.FACET,
                                facet_label="Fidelity",
                                rows=(
                                    ArgumentRow(label="B.1", argument="a"),
                                    ArgumentRow(label="B.1", argument="b"),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
    keys = [key for _node, key in iter_claim_nodes(tree)]
    assert keys == ["C1", "SC1", "C1.2", "C1.2.1", "C1.2.2", "C1.2.2.1"]
    row_keys = [key for _row, key, _node, _node_key in iter_rows(tree)]
    assert row_keys == ["C1.2.2.1.B.1", "C1.2.2.1.B.1@2"]


@settings(deadline=None)
@given(case=safety_cases())
def test_claim_walks_are_the_oracle_walk_kept_off_the_fields(case):
    def same(items) -> list[tuple]:  # nodes and rows by identity, keys by value
        return [tuple(x if isinstance(x, str) else id(x) for x in item) for item in items]

    fields = ("kind", "id", "criterion_id", "facet_label", "children", "rows")
    assert ClaimNode.FIELDS == fields  # the walk is no field
    for root in case.claims:  # each walked already, by the case's identifier check
        unwalked = root.replace()
        assert set(vars(unwalked)) == set(fields)  # `replace` carries no walk over
        for tree in (unwalked, root):
            nodes, rows = oracles.claim_walk(tree)
            for _ in range(2):  # the first call walks the tree; the second reads that walk
                assert same(iter_claim_nodes(tree)) == same(nodes)
                assert same(iter_rows(tree)) == same(rows)
        assert set(vars(unwalked)) > set(fields)
        never_walked = root.replace()
        assert unwalked == never_walked
        assert hash(unwalked) == hash(never_walked)
        assert repr(unwalked) == repr(never_walked)


@given(st.sampled_from(list(CausalStage)))
def test_classification_matches_position_on_chain(stage):
    kind = classify_indicator(stage)
    assert (kind is IndicatorKind.LAGGING) == (stage is CausalStage.HARM)


def test_resolve_references_hands_out_a_fresh_list_each_call():
    case = SafetyCase(
        id="case",
        methodologies=(Methodology(id="M1", name="n"),),
        criteria=(_criterion(hazard_ids=("H9",)),),
    )
    first = resolve_references(case)
    expected = list(first)
    assert [(f.referrer, f.missing) for f in expected] == [("AC1", "H9")]
    first.clear()
    first.append("not a finding")
    assert resolve_references(case) == expected
    with pytest.raises(UnresolvedCaseError):
        require_resolved(case)


# -- records -----------------------------------------------------------------

RECORD_CLASSES = sorted(
    (
        value
        for value in (getattr(aurcase, name) for name in aurcase.__all__)
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
    ),
    key=lambda cls: cls.__name__,
)


def _records(value):
    """Every record reachable from `value` through fields, collections and
    mappings, `value` itself included."""
    if isinstance(value, Record):
        yield value
        for name in value.FIELDS:
            yield from _records(getattr(value, name))
    elif isinstance(value, Mapping):
        for key, item in value.items():
            yield from _records(key)
            yield from _records(item)
    elif isinstance(value, (tuple, list, frozenset)):
        for item in value:
            yield from _records(item)


@pytest.fixture(scope="module")
def samples(golden_cat_text, golden_ledger_text) -> dict[type, Record]:
    """One record of each class met on a run over the golden case."""
    result = parse(golden_cat_text, "golden_cat.aur")
    ledger = parse_ledger(golden_ledger_text)
    finding = Diagnostic(
        "W103", Severity.WARNING, "evidence E9 is never cited", "E9", SourceSpan("c.aur", 3, 5, 3, 7)
    )
    document = build_report(
        result.case, "golden_cat.aur", [finding], review=readiness_review(result.case, ledger)
    )
    drift = drift_check(quantitative_criteria(result.case)[0], ledger)
    found: dict[type, Record] = {}
    for record in _records((result, document, ledger, drift, RuleConfig(), rule_catalog())):
        found.setdefault(type(record), record)
    return found


def _hash(record: Record):
    # A record holding a mapping is unhashable, as its dataclass was.
    try:
        return hash(record)
    except TypeError:
        return TypeError


def test_every_exported_record_class_has_a_sample(samples):
    assert len(RECORD_CLASSES) > 20
    assert set(RECORD_CLASSES) <= set(samples)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields_can_be_neither_set_nor_deleted(self, samples, cls):
        record = samples[cls]
        for name in cls.FIELDS:
            with pytest.raises(AttributeError, match=f"field {name!r}"):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError, match=f"field {name!r}"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_an_equal_copy_hashes_equal(self, samples, cls):
        record = samples[cls]
        copy = record.replace()
        positional = cls(*(getattr(record, name) for name in cls.FIELDS))
        for other in (copy, positional):
            assert other is not record
            assert other == record and not other != record
            assert _hash(other) == _hash(record)

    def test_repr_names_the_class_and_each_field(self, samples, cls):
        record = samples[cls]
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls.FIELDS)
        assert repr(record) == f"{cls.__name__}({fields})"

    def test_records_of_different_classes_never_compare_equal(self, samples, cls):
        record = samples[cls]
        assert all(record != other for kind, other in samples.items() if kind is not cls)
        assert record != tuple(getattr(record, name) for name in cls.FIELDS)


# -- what a record stores ------------------------------------------------------

def _collection_fields(cls) -> list[tuple[str, type]]:
    """(field, type) of each field of `cls` annotated `tuple[...]` or
    `frozenset[...]`."""
    kinds = {"tuple": tuple, "frozenset": frozenset}
    return [
        (name, kinds[kind])
        for name in cls.FIELDS
        if (kind := str(cls.__annotations__[name]).partition("[")[0]) in kinds
    ]


def test_collection_fields_are_stored_as_their_annotated_type(samples):
    checked = set()
    for cls, record in samples.items():
        for name, kind in _collection_fields(cls):
            value = getattr(record, name)
            assert type(value) is kind, (cls.__name__, name)
            for given in (list(value), iter(list(value))):
                copy = record.replace(**{name: given})
                assert type(getattr(copy, name)) is kind, (cls.__name__, name)
                assert copy == record and _hash(copy) == _hash(record)
            checked.add(f"{cls.__name__}.{name}")
    assert {
        "AcSpaceRegion.severities",
        "AcSpaceRegion.weak_severities",
        "ClaimNode.children",
        "ClaimNode.rows",
        "ParseResult.diagnostics",
        "ReadinessDecision.blockers",
        "ReadinessDecision.target_checks",
        "TraceRow.evidence_ids",
        "RuleConfig.required_facets",
        "SafetyCase.hazards",
    } <= checked


def test_a_tuple_or_frozenset_given_is_kept_as_the_same_object():
    severities = frozenset({SeverityLevel.S1, SeverityLevel.S2})
    region = AcSpaceRegion(
        severities=severities,
        roles=frozenset({ConflictRole.RESPONDER}),
        capabilities=frozenset({BehavioralCapability.COLLISION_AVOIDANCE}),
        statuses=frozenset({FunctionalityStatus.NOMINAL}),
        aggregations=frozenset({AggregationLevel.EVENT_LEVEL}),
    )
    assert region.severities is severities
    rows = (ArgumentRow("A.1", "it holds"),)
    assert ClaimNode(ClaimKind.REASONABLENESS, rows=rows).rows is rows
    categories = frozenset({HazardCategory.ARCHITECTURAL})
    hazard = Hazard("H1", "collision", HazardCategory.BEHAVIORAL, categories)
    assert hazard.secondary_categories is categories


def test_a_mapping_field_is_stored_as_given(golden_cat_text):
    result = parse(golden_cat_text, "golden_cat.aur")
    copy = result.replace(diagnostics=[])
    assert copy.span_index is result.span_index
    assert copy.reference_spans is result.reference_spans
    assert copy.diagnostics == ()


def test_a_dict_field_is_stored_as_a_new_dict():
    counts = {"crash": 1}
    entry = LedgerEntry("r1", Phase.PREDICTED, 10.0, "mi", counts)
    counts["crash"] = 5
    assert entry.event_counts == {"crash": 1}
    assert type(LedgerEntry("r1", Phase.PREDICTED, 10.0, "mi").event_counts) is dict
    config = RuleConfig(severity_overrides=MappingProxyType({"E006": "off"}))
    assert type(config.severity_overrides) is dict
    assert type(RuleConfig().severity_overrides) is dict


def test_records_with_the_same_fields_and_values_differ_by_class():
    class Left(Record):
        value: int

    class Right(Record):
        value: int

    assert Left(1) == Left(1) and Left(1) != Right(1)


def test_a_source_span_prints_as_its_dataclass_did():
    span = SourceSpan("case.aur", 1, 2, 3, 4)
    assert repr(span) == (
        "SourceSpan(file='case.aur', start_line=1, start_col=2, end_line=3, end_col=4)"
    )


def test_replace_validates_the_changed_record():
    row = ArgumentRow(label="A.1", argument="it holds")
    assert row.replace(limitations="dry roads").limitations == "dry roads"
    with pytest.raises(ModelError):
        row.replace(argument="")
    entry = LedgerEntry("r1", Phase.PREDICTED, 10.0, "mi", {"crash": 1})
    with pytest.raises(ValueError, match="exposure must be > 0"):
        entry.replace(exposure=-1.0)
    with pytest.raises(TypeError):
        entry.replace(mileage=1.0)


def test_a_record_class_refuses_a_mutable_default_or_a_misplaced_one():
    with pytest.raises(TypeError, match="must be immutable"):

        class Listed(Record):
            items: list = []

    with pytest.raises(TypeError, match="come last"):

        class Misplaced(Record):
            first: int = 0
            second: int
